package core

import (
	"fmt"

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
// each (runs its initial top-m batch), edge after edge on the calling
// goroutine. counters is threaded into every edge's join config.
//
// yBound says every edge joins with B-IDJ-Y. Its Y⁺ₗ tables are then built
// here, all of them before any edge primes (join2.YBoundTables): two or more
// are the lanes of one forward batched walk instead of one lone walk each.
//
// On any error or panic the already-built sources are released, so a
// caller-owned engine pool (Spec.Pool) gets every checked-out engine back
// even when a later edge fails.
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
	prime := func(ei int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("core: panic priming edge source %d: %v", ei, p)
			}
		}()
		if srcs[ei], err = build(cfgs[ei]); err != nil {
			return err
		}
		if p, ok := srcs[ei].(join2.Primer); ok {
			err = p.Prime()
		}
		return err
	}
	for ei := range cfgs {
		if err := prime(ei); err != nil {
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
