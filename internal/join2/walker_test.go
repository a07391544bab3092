package join2

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// TestWalkerContract pins walker.columns — the one primitive under every
// backward joiner — over {walk length} × {pool owner} × {measure kind}:
// every column is float64-== the dense reference kernel's at the nodes of P
// (all a joiner may read; batched rounds walk the rows form), every target
// is delivered exactly once and in order, a repeat round walks every target
// again, a cancellation and a callback panic both surface as the round's
// error with no engine left checked out, and the kernel work is the rows
// form's for the same targets.
func TestWalkerContract(t *testing.T) {
	// Under the lane-kernel body this machine selected, with the subtest
	// names the table has always had; then under each body by name.
	testWalkerContract(t)
	eachLaneBody(t, testWalkerContract)
}

func testWalkerContract(t *testing.T) {
	// Kernel work over this config's 18 targets, by walk length; identical
	// for both kinds. Every round walks the rows form over P, and P's one-hop
	// neighbourhood holds more than half of this 50-node graph's edges, so
	// only a walk's last step can gather — over P's out-edges, Σ out-degree(P)
	// = 116 frontier edges — and only where it would have been a sweep. l = 1
	// walks one target at a time, each step a sparse push (92 frontier
	// edges). So does l = 2: the pre-walker serial loop (B-IDJ's, at commit
	// 2f56227) swept the second step of 17 of the 18 walks and pushed the rest
	// (17 sweeps, 102 frontier edges); those 17 sweeps are gathers now, so 0
	// sweeps and 102 + 17·116 = 2 074 frontier edges. l = d walks 8 + 8 + 2
	// batched, where the full-column form swept densely at every step of
	// every chunk (24 sweeps); the rows form gathers the last step of each of
	// the 3 chunks instead, so 24 − 3 = 21 sweeps and 3·116 frontier edges.
	work := map[int]dht.Counters{
		1: {Walks: 18, EdgeSweeps: 0, FrontierEdges: 92},
		2: {Walks: 18, EdgeSweeps: 0, FrontierEdges: 102},
		8: {Walks: 18, EdgeSweeps: 21},
	}
	{
		cfg := testConfig(t, 7, 0.3)
		var outP int64
		for _, p := range cfg.P {
			outP += int64(cfg.Graph.OutDegree(p))
		}
		for l, gathers := range map[int]int64{2: 17, cfg.D: 3} {
			rows := work[l]
			rows.FrontierEdges += gathers * outP
			work[l] = rows
		}
	}
	for _, kind := range []dht.Kind{dht.FirstHit, dht.Reach} {
		base := testConfig(t, 7, 0.3)
		if kind == dht.Reach {
			base.Params, base.Measure = dht.PPR(0.5), dht.Reach
		}
		if len(base.Q) <= dht.DefaultBatchWidth {
			t.Fatalf("want a target set wider than one batch, got %d", len(base.Q))
		}
		dense, err := dht.NewBatchEngine(base.Graph, base.Params, base.D, 1)
		if err != nil {
			t.Fatal(err)
		}
		dense.ForceDense = true
		for _, l := range []int{1, 2, base.D} {
			want := make([][]float64, len(base.Q))
			for qi, q := range base.Q {
				want[qi] = slices.Clone(dense.BackWalkScoresBatch(kind, []graph.NodeID{q}, l)[0])
			}
			// The workers=… and memo=… name segments outlived the options
			// they named, so the subtest names stay stable; every value runs
			// the same case.
			for _, workers := range []int{1, 3, -1} {
				for _, memo := range []bool{false, true} {
					for _, callerPool := range []bool{false, true} {
						name := fmt.Sprintf("%v/l=%d/workers=%d/memo=%v/pool=%v", kind, l, workers, memo, callerPool)
						t.Run(name, func(t *testing.T) {
							cfg := base
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
	var polls, failAt int
	stop := errors.New("stop")
	cfg.Cancel = func() error {
		if polls++; failAt > 0 && polls >= failAt {
			return stop
		}
		return nil
	}
	w := newWalker(&cfg)

	// round runs one columns call and returns how often each target arrived.
	round := func(fn func(qi int)) ([]int, error) {
		seen := make([]int, len(cfg.Q))
		next := 0
		err := w.columns(cfg.Q, l, func(qi int, scores []float64) {
			if qi != next {
				t.Errorf("target %d delivered where %d was due", qi, next)
			}
			next = qi + 1
			seen[qi]++
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
	if first != work {
		t.Fatalf("kernel work %+v, want %+v", first, work)
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
	polls, failAt = 0, 2
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
