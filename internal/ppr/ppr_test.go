package ppr

import (
	"math"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// testGraph is a 3-community graph with a few guaranteed dangling nodes so
// the sink semantics are actually exercised.
func testGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{60, 60, 60}, PIn: 0.06, POut: 0.01, Seed: seed, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild with three extra sink nodes fed from the first community:
	// walks that enter them die, which is the dangling case both
	// evaluators must agree on.
	n := g.NumNodes()
	b := graph.NewBuilder(n+3, true)
	for u := 0; u < n; u++ {
		to, w, _ := g.OutEdges(graph.NodeID(u))
		for j := range to {
			b.AddEdge(graph.NodeID(u), to[j], w[j])
		}
	}
	for i := 0; i < 3; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(n+i), 1)
	}
	return b.Build()
}

// TestPowerIterationMatchesReachEngine pins PowerIteration to the dht walk
// engine under Kind Reach with PPR parameters — the relationship the served
// "ppr" measure relies on when it runs through the existing executors.
func TestPowerIterationMatchesReachEngine(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		g := testGraph(t, seed)
		for _, c := range []float64{0.2, 0.5, 0.85} {
			const d = 9
			e, err := dht.NewBatchEngine(g, dht.PPR(c), d, 1)
			if err != nil {
				t.Fatal(err)
			}
			srcs := []graph.NodeID{0, 1, graph.NodeID(g.NumNodes() / 2), graph.NodeID(g.NumNodes() - 1)}
			for _, src := range srcs {
				col, err := PowerIteration(g, c, src, d)
				if err != nil {
					t.Fatal(err)
				}
				for v := 0; v < g.NumNodes(); v += 7 {
					want := e.ForwardScore(dht.Reach, src, graph.NodeID(v), d)
					if math.Abs(col[v]-want) > 1e-12 {
						t.Fatalf("seed=%d c=%g src=%d v=%d: PowerIteration=%.17g engine=%.17g",
							seed, c, src, v, col[v], want)
					}
				}
			}
		}
	}
}

// TestPowerIterationMatchesExactSolve checks the deep-truncation limit
// against the dense linear solve (which computes the untruncated series).
func TestPowerIterationMatchesExactSolve(t *testing.T) {
	g := testGraph(t, 3)
	const c = 0.5
	const d = 64 // c^65 ≈ 2.7e-20: truncation far below the tolerance
	for _, v := range []graph.NodeID{0, 5, graph.NodeID(g.NumNodes() - 1)} {
		exact, err := dht.ExactReachColumn(g, dht.PPR(c), v)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []graph.NodeID{0, 2, 31} {
			col, err := PowerIteration(g, c, src, d)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(col[v]-exact[src]) > 1e-12 {
				t.Fatalf("src=%d v=%d: PowerIteration=%.17g exact=%.17g", src, v, col[v], exact[src])
			}
		}
	}
}

// TestValidation covers the error paths.
func TestValidation(t *testing.T) {
	g := testGraph(t, 1)
	if _, err := PowerIteration(nil, 0.5, 0, 4); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := PowerIteration(g, 1.5, 0, 4); err == nil {
		t.Fatal("c out of range accepted")
	}
	if _, err := PowerIteration(g, 0.5, graph.NodeID(g.NumNodes()), 4); err == nil {
		t.Fatal("source out of range accepted")
	}
	if _, err := PowerIteration(g, 0.5, 0, 0); err == nil {
		t.Fatal("zero depth accepted")
	}
}
