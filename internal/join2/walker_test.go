package join2

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// TestWalkerContract pins walker.columns — the one primitive under every
// backward joiner — over {workers} × {walk length} × {pool owner} ×
// {measure kind}: every column is float64-== the dense reference kernel's at
// the nodes of P (all a joiner may read; batched rounds walk the rows form),
// every target is delivered exactly once under a worker index in range, a
// repeat round walks every target again, a cancellation and a callback panic
// both surface as the round's error with no engine left checked out, and at
// one worker the kernel work is the rows form's for the same targets.
func TestWalkerContract(t *testing.T) {
	// Under the lane-kernel body this machine selected, with the subtest
	// names the table has always had; then under each body by name.
	testWalkerContract(t)
	eachLaneBody(t, testWalkerContract)
}

func testWalkerContract(t *testing.T) {
	// Counters of the pre-walker serial per-target loop (B-IDJ's, at commit
	// 2f56227) over this config's 18 targets, by walk length; identical for
	// both kinds. l = 1, 2 walk solo. l = d walks 8 + 8 + 2 batched, where
	// the full-column form swept densely at every step of every chunk (24
	// sweeps); the rows form gathers the last step of each of the 3 chunks
	// over P (Σ out-degree(P) edges, counted as frontier edges) instead, so
	// 24 − 3 = 21 sweeps. P's one-hop neighbourhood holds more than half of
	// this 50-node graph's edges, so the step before stays a sweep.
	work := map[int]dht.Counters{
		1: {Walks: 18, EdgeSweeps: 0, FrontierEdges: 92},
		2: {Walks: 18, EdgeSweeps: 17, FrontierEdges: 102},
		8: {Walks: 18, EdgeSweeps: 21},
	}
	{
		cfg := testConfig(t, 7, 0.3)
		rows := work[cfg.D]
		for _, p := range cfg.P {
			rows.FrontierEdges += 3 * int64(cfg.Graph.OutDegree(p))
		}
		work[cfg.D] = rows
	}
	for _, kind := range []dht.Kind{dht.FirstHit, dht.Reach} {
		base := testConfig(t, 7, 0.3)
		if kind == dht.Reach {
			base.Params, base.Measure = dht.PPR(0.5), dht.Reach
		}
		if len(base.Q) <= dht.DefaultBatchWidth {
			t.Fatalf("want a target set wider than one batch, got %d", len(base.Q))
		}
		dense, err := dht.NewEngine(base.Graph, base.Params, base.D)
		if err != nil {
			t.Fatal(err)
		}
		dense.ForceDense = true
		for _, l := range []int{1, 2, base.D} {
			want := make([][]float64, len(base.Q))
			for qi, q := range base.Q {
				want[qi] = make([]float64, base.Graph.NumNodes())
				dense.BackWalkKind(kind, q, l, want[qi])
			}
			for _, workers := range []int{1, 3, -1} {
				// The memo=… name segment outlived the score memo so the
				// subtest names stay stable; both values run the same case.
				for _, memo := range []bool{false, true} {
					for _, callerPool := range []bool{false, true} {
						name := fmt.Sprintf("%v/l=%d/workers=%d/memo=%v/pool=%v", kind, l, workers, memo, callerPool)
						t.Run(name, func(t *testing.T) {
							cfg := base
							cfg.Workers = workers
							if callerPool {
								pool, err := dht.NewEnginePool(cfg.Graph, cfg.Params, cfg.D)
								if err != nil {
									t.Fatal(err)
								}
								cfg.Pool = pool
							}
							walkerCase(t, cfg, l, want, work[l])
						})
					}
				}
			}
		}
	}
}

// firstDiff returns the first node of ps at which a delivered column differs
// from its reference, or -1.
func firstDiff(got, want []float64, ps []graph.NodeID) int {
	for _, p := range ps {
		if got[p] != want[p] {
			return int(p)
		}
	}
	return -1
}

func walkerCase(t *testing.T, cfg Config, l int, want [][]float64, work dht.Counters) {
	var ctrs dht.Counters
	cfg.Counters = &ctrs
	var polls, failAt atomic.Int64
	stop := errors.New("stop")
	cfg.Cancel = func() error {
		if n := failAt.Load(); n > 0 && polls.Add(1) >= n {
			return stop
		}
		return nil
	}
	w := newWalker(&cfg)
	maxWorkers := cfg.workerCount(len(cfg.Q))

	// round runs one columns call and returns how often each target arrived.
	round := func(fn func(qi int)) ([]int32, error) {
		seen := make([]int32, len(cfg.Q))
		err := w.columns(cfg.Q, l, func(wi, qi int, scores []float64) {
			if wi < 0 || wi >= maxWorkers {
				t.Errorf("worker index %d outside [0, %d)", wi, maxWorkers)
			}
			atomic.AddInt32(&seen[qi], 1)
			if d := firstDiff(scores, want[qi], cfg.P); d >= 0 {
				t.Errorf("column of target %d differs from the dense reference at node %d: %v != %v", qi, d, scores[d], want[qi][d])
			}
			if fn != nil {
				fn(qi)
			}
		})
		return seen, err
	}
	released := func(when string) {
		t.Helper()
		w.release()
		if n := w.pool.Outstanding(); n != 0 {
			t.Fatalf("%s: %d engines still checked out after release", when, n)
		}
	}

	seen, err := round(nil)
	if err != nil {
		t.Fatal(err)
	}
	for qi, n := range seen {
		if n != 1 {
			t.Fatalf("target %d delivered %d times, want once", qi, n)
		}
	}
	first := ctrs.Snapshot()
	if cfg.Workers == 1 && first != work {
		t.Fatalf("one-worker kernel work %+v, want %+v", first, work)
	}
	if first.Walks != int64(len(cfg.Q)) {
		t.Fatalf("%d walks for %d targets", first.Walks, len(cfg.Q))
	}

	// The repeat round walks every target again: the walker caches nothing.
	if seen, err = round(nil); err != nil {
		t.Fatal(err)
	}
	for qi, n := range seen {
		if n != 1 {
			t.Fatalf("repeat: target %d delivered %d times, want once", qi, n)
		}
	}
	if got, wantWalks := ctrs.Snapshot().Walks, 2*first.Walks; got != wantWalks {
		t.Fatalf("repeat round: %d walks in total, want %d", got, wantWalks)
	}
	released("after clean rounds")

	// A panic in the callback (here: on the last target) is the round's
	// error, not a crash.
	if _, err = round(func(qi int) {
		if qi == len(cfg.Q)-1 {
			panic("boom")
		}
	}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("callback panic surfaced as %v", err)
	}
	released("after a callback panic")

	// A cancellation that fires at the second chunk stops the round there.
	failAt.Store(2)
	seen, err = round(nil)
	if !errors.Is(err, stop) {
		t.Fatalf("mid-round cancel surfaced as %v", err)
	}
	delivered := 0
	for _, n := range seen {
		delivered += int(n)
	}
	if delivered >= len(cfg.Q) {
		t.Fatalf("canceled round still delivered all %d targets", delivered)
	}
	released("after a mid-round cancel")
}
