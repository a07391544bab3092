package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

// BenchmarkAdmissionFlood measures what the two admission classes buy. A
// Service with two tokens and no result cache serves one interactive
// closed-loop client while four flood clients keep it saturated; every
// request is a cold, planner-picked top-50 join over a 60×60 pair of interest
// groups of the YouTube stand-in (milliseconds per join). In "classes" the
// flood runs at PriorityBatch; in "oneclass" it shares the interactive
// class, which is a FIFO. Each iteration is one interactive request, and the
// interactive latency's p50 and p99 are reported: classes should sit below
// oneclass on p99 (at 1000 iterations, ten samples lie past it). -count runs
// one mode's repeats back to back, so compare the modes in alternating
// processes, ten pairs of
//
//	go test -run '^$' -bench 'AdmissionFlood/classes$' -benchtime 1000x -cpu 2 ./internal/service/
//	go test -run '^$' -bench 'AdmissionFlood/oneclass$' -benchtime 1000x -cpu 2 ./internal/service/
func BenchmarkAdmissionFlood(b *testing.B) {
	ds, groups := youtubeGroups(b)
	pair := func(i int) (SetRef, SetRef) {
		return SetRef{IDs: groups[i%len(groups)].Nodes()}, SetRef{IDs: groups[(7*i+3)%len(groups)].Nodes()}
	}
	const floodClients, k = 4, 50
	for _, mode := range []struct {
		name  string
		flood int // the flood clients' priority
	}{{"classes", PriorityBatch}, {"oneclass", PriorityInteractive}} {
		b.Run(mode.name, func(b *testing.B) {
			svc := New(Config{MaxConcurrency: 2, ResultCacheSize: -1})
			if err := svc.LoadGraph("g", ds.Graph, nil); err != nil {
				b.Fatal(err)
			}
			ctx, stop := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			for c := range floodClients {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 1 + c; ctx.Err() == nil; i += floodClients {
						p, q := pair(i)
						_, err := svc.Join2(ctx, "g", p, q, k, Query{Priority: mode.flood})
						if err != nil && !errors.Is(err, context.Canceled) {
							b.Error(err)
							return
						}
					}
				}()
			}
			// Time only a saturated service: both tokens held, two waiting.
			waitFor(b, func() bool { _, waiting, _ := svc.adm.snapshot(); return waiting >= 2 })
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range b.N {
				p, q := pair(1000 + 5*i)
				start := time.Now()
				if _, err := svc.Join2(context.Background(), "g", p, q, k, Query{}); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(start)
			}
			b.StopTimer()
			stop()
			wg.Wait()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			ms := func(q float64) float64 { return float64(lat[int(q*float64(len(lat)-1))]) / 1e6 }
			b.ReportMetric(ms(0.50), "p50-ms")
			b.ReportMetric(ms(0.99), "p99-ms")
		})
	}
}
