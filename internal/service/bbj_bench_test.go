package service

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
)

var youtube60 struct {
	once   sync.Once
	ds     *dataset.Dataset
	groups []*graph.NodeSet
	err    error
}

// youtubeGroups returns the 25 000-node YouTube stand-in and the first 60
// nodes of each of its interest groups of at least 60, built once per
// process.
func youtubeGroups(b *testing.B) (*dataset.Dataset, []*graph.NodeSet) {
	s := &youtube60
	s.once.Do(func() {
		s.ds, s.err = dataset.YouTube(dataset.YouTubeConfig{Scale: 0.5, Seed: 1})
		if s.err != nil {
			return
		}
		for _, set := range s.ds.Sets {
			if set.Len() >= 60 {
				s.groups = append(s.groups, set.Take(60))
			}
		}
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.ds, s.groups
}

// BenchmarkServedBBJ serves forced B-BJ requests — the only executor that
// re-joins on one joiner — through a Service with the result cache off. Each
// iteration is one request over the next pair of 60-node interest groups of
// the 25 000-node YouTube stand-in, in four shapes: a batch of k = 50, a
// batch of every pair, a stream pulled 200 times, and a stream drained to
// exhaustion. walks/op and sweeps/op are exact on every machine.
func BenchmarkServedBBJ(b *testing.B) {
	ds, groups := youtubeGroups(b)
	q := Query{Params: dht.DHTLambda(0.2), D: 8, Algorithm: "B-BJ"}
	for _, shape := range []struct {
		name  string
		k     int // a batch request's k; 0 streams
		pulls int // a stream's pulls; 0 drains it
	}{{"batch50", 50, 0}, {"batchall", 3600, 0}, {"pull200", 0, 200}, {"drain", 0, 0}} {
		b.Run(shape.name, func(b *testing.B) {
			svc := New(Config{ResultCacheSize: -1})
			if err := svc.LoadGraph("g", ds.Graph, nil); err != nil {
				b.Fatal(err)
			}
			before := svc.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := SetRef{IDs: groups[i%len(groups)].Nodes()}
				qs := SetRef{IDs: groups[(7*i+3)%len(groups)].Nodes()}
				if shape.k > 0 {
					if _, err := svc.Join2(context.Background(), "g", p, qs, shape.k, q); err != nil {
						b.Fatal(err)
					}
					continue
				}
				st, err := svc.OpenJoin2(context.Background(), "g", p, qs, q)
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; shape.pulls == 0 || n < shape.pulls; n++ {
					if _, ok, err := st.Next(); err != nil {
						b.Fatal(err)
					} else if !ok {
						break
					}
				}
				st.Stop()
			}
			after := svc.Stats()
			n := float64(b.N)
			b.ReportMetric(float64(after.Walks-before.Walks)/n, "walks/op")
			b.ReportMetric(float64(after.EdgeSweeps-before.EdgeSweeps)/n, "sweeps/op")
		})
	}
}
