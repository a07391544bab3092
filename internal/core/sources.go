package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dht"
	"repro/internal/join2"
)

// edgeSource streams the 2-way join results of one query edge in descending
// score order — it is exactly a join2.Stream. Implementations differ in how
// the stream is produced: a fully materialized list (AP), repeated
// from-scratch top-(m+i) joins (PJ, join2.NewRejoinStream), or the
// incremental F structure (PJ-i, join2.NewIncrementalStream).
type edgeSource = join2.Stream

// buildSources constructs one edgeSource per query edge via build and primes
// each (runs its initial top-m batch), priming concurrently when the spec
// enables workers — the initial joins of PJ/PJ-i and the all-pairs
// materialization of AP are the dominant per-edge costs, and they are
// independent across edges. The edge-level fan-out is bounded by the
// resolved worker count (a semaphore), so Spec.Workers caps this level's
// goroutines too. counters is threaded into every edge's join config.
//
// yBound says every edge joins with B-IDJ-Y. Its Y⁺ₗ tables are then built
// here, all of them before any edge primes (join2.YBoundTables): two or more
// are the lanes of one forward batched walk instead of one lone walk each.
//
// On any error the already-built sources are released, so a caller-owned
// engine pool (Spec.Pool) gets every checked-out engine back even when a
// later edge fails.
func buildSources(spec *Spec, counters *dht.Counters, yBound bool, build func(cfg join2.Config) (edgeSource, error)) ([]edgeSource, error) {
	edges := spec.Query.Edges()
	cfgs := make([]join2.Config, len(edges))
	for ei, e := range edges {
		cfgs[ei] = edgeConfig(spec, e, counters)
	}
	if yBound {
		if err := join2.YBoundTables(cfgs); err != nil {
			return nil, err
		}
	}
	srcs := make([]edgeSource, len(edges))
	errs := make([]error, len(edges))
	mk := func(ei int) {
		// A panic here would cross a goroutine boundary on the concurrent
		// path and kill the process; recover it into the edge's error slot so
		// the release sweep below still returns every pooled engine.
		defer func() {
			if p := recover(); p != nil {
				errs[ei] = fmt.Errorf("core: panic priming edge source %d: %v", ei, p)
			}
		}()
		srcs[ei], errs[ei] = build(cfgs[ei])
		if errs[ei] != nil {
			return
		}
		if p, ok := srcs[ei].(join2.Primer); ok {
			errs[ei] = p.Prime()
		}
	}
	w := spec.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 1 && len(edges) > 1 {
		sem := make(chan struct{}, w)
		var wg sync.WaitGroup
		for ei := range edges {
			wg.Add(1)
			sem <- struct{}{}
			go func(ei int) {
				defer wg.Done()
				defer func() { <-sem }()
				mk(ei)
			}(ei)
		}
		wg.Wait()
	} else {
		for ei := range edges {
			mk(ei)
		}
	}
	for _, err := range errs {
		if err != nil {
			releaseSources(srcs)
			return nil, err
		}
	}
	return srcs, nil
}

// releaseSources returns every source's pooled resources; nil entries (from
// a failed build) are skipped.
func releaseSources(srcs []edgeSource) {
	for _, s := range srcs {
		if s != nil {
			s.Release()
		}
	}
}

// listSource streams a fully materialized, descending-sorted result list —
// the AP strategy, where every pair of the edge's node sets has been scored
// up front.
type listSource struct {
	list []join2.Result
	pos  int
}

func (s *listSource) Next() (join2.Result, bool, error) {
	if s.pos >= len(s.list) {
		return join2.Result{}, false, nil
	}
	r := s.list[s.pos]
	s.pos++
	return r, true, nil
}

// Release implements join2.Stream; a materialized list holds no engines.
func (s *listSource) Release() {}
