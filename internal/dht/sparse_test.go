package dht

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// sparseTestGraphs returns a spread of random graphs: small communities,
// sparse ER (with sinks and unreachable regions), and a denser ER where the
// frontier saturates quickly and the kernel must switch to dense sweeps.
func sparseTestGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{25, 25}, PIn: 0.2, POut: 0.05, Seed: 11, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs = append(gs, g)
	for _, cfg := range []struct {
		n    int
		p    float64
		seed int64
	}{{40, 0.05, 4}, {30, 0.3, 5}} {
		g, err := graph.GenerateER(cfg.n, cfg.p, cfg.seed)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// TestSparseMatchesDenseBitIdentical is the central equivalence property of
// the adaptive kernel: for every primitive, measure kind, λ, and depth, the
// adaptive engine must produce bit-identical (==, not approximately equal)
// results to the ForceDense reference, because both paths perform the same
// floating-point additions in the same order.
func TestSparseMatchesDenseBitIdentical(t *testing.T) {
	for gi, g := range sparseTestGraphs(t) {
		n := g.NumNodes()
		for _, lambda := range []float64{0.2, 0.5, 0.8} {
			for _, d := range []int{1, 2, 4, 8} {
				p := DHTLambda(lambda)
				adaptive := mustEngine(t, g, p, d)
				dense := mustEngine(t, g, p, d)
				dense.ForceDense = true
				outA := make([]float64, n)
				outD := make([]float64, n)
				for _, kind := range []Kind{FirstHit, Reach} {
					for _, q := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1)} {
						adaptive.BackWalkKind(kind, q, d, outA)
						dense.BackWalkKind(kind, q, d, outD)
						for u := range outA {
							if outA[u] != outD[u] {
								t.Fatalf("graph %d λ=%g d=%d %v: BackWalk(%d)[%d] sparse %v != dense %v",
									gi, lambda, d, kind, q, u, outA[u], outD[u])
							}
						}
						for _, u := range []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(n - 1)} {
							sa := adaptive.ForwardScoreKind(kind, u, q, d)
							sd := dense.ForwardScoreKind(kind, u, q, d)
							if sa != sd {
								t.Fatalf("graph %d λ=%g d=%d %v: forward(%d,%d) sparse %v != dense %v",
									gi, lambda, d, kind, u, q, sa, sd)
							}
						}
					}
				}
				seeds := []graph.NodeID{0, 1, 2}
				targets := []graph.NodeID{graph.NodeID(n - 1), graph.NodeID(n / 2)}
				ra := adaptive.ReachProbs(seeds, targets, d)
				rd := dense.ReachProbs(seeds, targets, d)
				for i := range ra {
					for ti := range ra[i] {
						if ra[i][ti] != rd[i][ti] {
							t.Fatalf("graph %d λ=%g d=%d: ReachProbs[%d][%d] sparse %v != dense %v",
								gi, lambda, d, i, ti, ra[i][ti], rd[i][ti])
						}
					}
				}
			}
		}
	}
}

// TestSparseMatchesDenseProperty drives the same equivalence through
// testing/quick over random ER graphs and parameters.
func TestSparseMatchesDenseProperty(t *testing.T) {
	f := func(seed int64, rawL, rawD uint8) bool {
		n := 20 + int(seed%17+17)%17
		g, err := graph.GenerateER(n, 0.12, seed)
		if err != nil {
			return false
		}
		lambda := 0.1 + float64(rawL%8)/10
		d := 1 + int(rawD%8)
		p := DHTLambda(lambda)
		a, err := NewEngine(g, p, d)
		if err != nil {
			return false
		}
		ref, err := NewEngine(g, p, d)
		if err != nil {
			return false
		}
		ref.ForceDense = true
		q := graph.NodeID((int(seed/3)%n + n) % n)
		outA := make([]float64, n)
		outD := make([]float64, n)
		a.BackWalk(q, d, outA)
		ref.BackWalk(q, d, outD)
		for u := range outA {
			if outA[u] != outD[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBackWalkScoresMatchesBackWalkKind: the β-prefilled engine-owned column
// must be bit-identical to the reference BackWalkKind at every node, across
// consecutive calls with different targets and depths (exercising the lazy
// restore of only-touched entries), for both measure kinds.
func TestBackWalkScoresMatchesBackWalkKind(t *testing.T) {
	for gi, g := range sparseTestGraphs(t) {
		n := g.NumNodes()
		for _, params := range []Params{DHTLambda(0.2), DHTLambda(0.7), PPR(0.5)} {
			e := mustEngine(t, g, params, 8)
			ref := mustEngine(t, g, params, 8)
			out := make([]float64, n)
			for _, kind := range []Kind{FirstHit, Reach} {
				for rep := 0; rep < 2; rep++ { // repeat: restore must be exact
					for _, q := range []graph.NodeID{0, graph.NodeID(n / 2), graph.NodeID(n - 1), 1} {
						for _, steps := range []int{1, 2, 3, 8} {
							got := e.BackWalkScores(kind, q, steps)
							ref.BackWalkKind(kind, q, steps, out)
							for u := range out {
								if got[u] != out[u] {
									t.Fatalf("graph %d %v %v q=%d steps=%d node %d: scores %v != ref %v",
										gi, params, kind, q, steps, u, got[u], out[u])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSparseAgainstExactSolver pins the adaptive kernel to the dense linear
// system directly (not just to the dense walk), deep enough that truncation
// error is below tolerance.
func TestSparseAgainstExactSolver(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{12, 12}, PIn: 0.35, POut: 0.1, Seed: 77, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DHTLambda(0.3)
	d := p.StepsForEpsilon(1e-10)
	e := mustEngine(t, g, p, d)
	out := make([]float64, g.NumNodes())
	for _, q := range []graph.NodeID{0, 15} {
		exact, err := ExactColumn(g, p, q)
		if err != nil {
			t.Fatal(err)
		}
		e.BackWalk(q, d, out)
		for u := range out {
			if math.Abs(out[u]-exact[u]) > 1e-8 {
				t.Fatalf("node %d → %d: sparse %v vs exact %v", u, q, out[u], exact[u])
			}
		}
	}
}

// TestWalkStateHygiene interleaves different walk primitives on one engine
// and checks that no state leaks between invocations: every repetition must
// reproduce its first answer exactly.
func TestWalkStateHygiene(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	n := g.NumNodes()
	e := mustEngine(t, g, DHTLambda(0.4), 6)
	out := make([]float64, n)
	e.BackWalk(3, 6, out)
	wantBack := append([]float64(nil), out...)
	wantFwd := e.ForwardScore(1, 7)
	probs := make([]float64, 6)
	copy(probs, e.ForwardHitProbsInto(1, 7, probs))
	wantProbs := append([]float64(nil), probs...)
	for i := 0; i < 3; i++ {
		e.ForwardScoreKind(Reach, 2, 9, 3) // interleave a different primitive
		e.BackWalkKind(Reach, 5, 2, out)
		if got := e.ForwardScore(1, 7); got != wantFwd {
			t.Fatalf("iter %d: forward score drifted: %v vs %v", i, got, wantFwd)
		}
		e.ForwardHitProbsInto(1, 7, probs)
		for j := range probs {
			if probs[j] != wantProbs[j] {
				t.Fatalf("iter %d: hit probs drifted at %d: %v vs %v", i, j, probs[j], wantProbs[j])
			}
		}
		e.BackWalk(3, 6, out)
		for u := range out {
			if out[u] != wantBack[u] {
				t.Fatalf("iter %d: backwalk drifted at %d: %v vs %v", i, u, out[u], wantBack[u])
			}
		}
	}
}

// TestEnginePoolReuse checks the pool hands engines back out after Put and
// that pooled engines aggregate into the shared sink from many goroutines.
func TestEnginePoolReuse(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	pl, err := NewEnginePool(g, DHTLambda(0.2), 4)
	if err != nil {
		t.Fatal(err)
	}
	var sink Counters
	pl.Sink = &sink
	e1 := pl.Get()
	pl.Put(e1)
	if e2 := pl.Get(); e2 != e1 {
		// Not guaranteed by sync.Pool, but in a single-goroutine sequence
		// with no GC it holds; treat a miss as a skip, not a failure.
		t.Skip("sync.Pool did not return the cached engine")
	} else {
		pl.Put(e2)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := pl.Get()
			defer pl.Put(e)
			out := make([]float64, g.NumNodes())
			for i := 0; i < 5; i++ {
				e.BackWalk(graph.NodeID((w*5+i)%g.NumNodes()), 4, out)
			}
		}(w)
	}
	wg.Wait()
	if got := sink.Snapshot().Walks; got != 20 {
		t.Fatalf("sink walks = %d, want 20", got)
	}
	if _, err := NewEnginePool(g, Params{Alpha: 0, Beta: 0, Lambda: 0.5}, 4); err == nil {
		t.Fatal("invalid pool config accepted")
	}
}

// TestEnginePoolConstructionIsLazy: a pool is what every throw-away serving
// session builds first, so constructing one must not allocate per node —
// the bytes NewEnginePool allocates are the same on a graph 100× larger —
// while still rejecting a bad depth up front.
func TestEnginePoolConstructionIsLazy(t *testing.T) {
	poolBytes := func(n int) uint64 {
		g, err := graph.GenerateRing(n, 2, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := NewEnginePool(g, DHTLambda(0.2), 8); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := poolBytes(100), poolBytes(10000)
	if small != large || small > 1024 {
		t.Fatalf("NewEnginePool allocates %d B on 100 nodes and %d B on 10000: want equal and small", small, large)
	}
	g := sparseTestGraphs(t)[0]
	if _, err := NewEnginePool(g, DHTLambda(0.2), 0); err == nil {
		t.Fatal("pool with depth 0 accepted")
	}
}

// TestIntoVariantsMatchAllocating pins the buffer-reusing entry points to
// their allocating counterparts.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	e := mustEngine(t, g, DHTLambda(0.3), 6)
	probs := e.ForwardHitProbs(0, 9, 6)
	buf := make([]float64, 6)
	for i := range buf {
		buf[i] = math.NaN() // Into must fully overwrite
	}
	e.ForwardHitProbsInto(0, 9, buf)
	for i := range probs {
		if probs[i] != buf[i] {
			t.Fatalf("Into mismatch at %d: %v vs %v", i, buf[i], probs[i])
		}
	}
	seeds := []graph.NodeID{0, 1}
	targets := []graph.NodeID{9, 12}
	want := e.ReachProbs(seeds, targets, 5)
	res := make([][]float64, 5)
	for i := range res {
		res[i] = []float64{math.NaN(), math.NaN()}
	}
	e.ReachProbsInto(seeds, targets, res)
	for i := range want {
		for ti := range want[i] {
			if want[i][ti] != res[i][ti] {
				t.Fatalf("ReachProbsInto mismatch at [%d][%d]", i, ti)
			}
		}
	}
}
