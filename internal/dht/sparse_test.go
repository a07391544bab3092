package dht

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

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

// TestSparseAgainstExactSolver pins every regime of a lone walk to the dense
// linear system directly (not just to the reference walk), deep enough that
// truncation error is below tolerance.
func TestSparseAgainstExactSolver(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{12, 12}, PIn: 0.35, POut: 0.1, Seed: 77, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DHTLambda(0.3)
	d := p.StepsForEpsilon(1e-10)
	for _, r := range regimes {
		e := regimeEngine(t, g, p, d, 1, r)
		for _, q := range []graph.NodeID{0, 15} {
			exact, err := ExactColumn(g, p, q)
			if err != nil {
				t.Fatal(err)
			}
			for u, s := range column(e, FirstHit, q, d) {
				if math.Abs(s-exact[u]) > 1e-8 {
					t.Fatalf("%s: node %d → %d: walk %v vs exact %v", r.name, u, q, s, exact[u])
				}
			}
		}
	}
}

// TestWalkStateHygiene interleaves different walk primitives on one lone
// engine and checks that no state leaks between invocations: every
// repetition must reproduce its first answer exactly.
func TestWalkStateHygiene(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	e := mustEngine(t, g, DHTLambda(0.4), 6)
	wantBack := column(e, FirstHit, 3, 6)
	wantFwd := e.ForwardScore(FirstHit, 1, 7, 6)
	wantProbs := hitProbs(e, 1, 7, 6)
	for i := 0; i < 3; i++ {
		e.ForwardScore(Reach, 2, 9, 3) // interleave other primitives
		e.BackWalkScoresBatch(Reach, []graph.NodeID{5}, 2)
		e.reachProbsBatch([][]graph.NodeID{{0, 4}}, [][]graph.NodeID{{9}}, 6, newReadSet(g, []graph.NodeID{9}, false))
		if got := e.ForwardScore(FirstHit, 1, 7, 6); got != wantFwd {
			t.Fatalf("iter %d: forward score drifted: %v vs %v", i, got, wantFwd)
		}
		if got := hitProbs(e, 1, 7, 6); !slices.Equal(got, wantProbs) {
			t.Fatalf("iter %d: hit probs drifted: %v vs %v", i, got, wantProbs)
		}
		if got := column(e, FirstHit, 3, 6); !slices.Equal(got, wantBack) {
			t.Fatalf("iter %d: backward column drifted: %v vs %v", i, got, wantBack)
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
			for i := 0; i < 5; i++ {
				e.BackWalkScoresBatch(FirstHit, []graph.NodeID{graph.NodeID((w*5 + i) % g.NumNodes())}, 4)
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
	// The least of three reads, so a stray allocation elsewhere in the
	// process (the race runtime makes some) does not count against the pool.
	small, large := poolBytes(100), poolBytes(10000)
	for range 2 {
		small, large = min(small, poolBytes(100)), min(large, poolBytes(10000))
	}
	if small != large || small > 1024 {
		t.Fatalf("NewEnginePool allocates %d B on 100 nodes and %d B on 10000: want equal and small", small, large)
	}
	g := sparseTestGraphs(t)[0]
	if _, err := NewEnginePool(g, DHTLambda(0.2), 0); err == nil {
		t.Fatal("pool with depth 0 accepted")
	}
}
