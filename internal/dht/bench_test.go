package dht

import (
	"testing"

	"repro/internal/graph"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{800, 800, 800}, PIn: 0.01, POut: 0.01, Seed: 1, MinOutLink: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkForwardScore measures the per-pair forward absorbing walk (the
// F-BJ primitive) on a lone engine, for comparison against the backward
// kernels: one forward walk scores a single pair, one backward walk scores
// |V| pairs.
func BenchmarkForwardScore(b *testing.B) {
	g := benchGraph(b)
	e := mustEngine(b, g, DHTLambda(0.2), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForwardScore(FirstHit, graph.NodeID(i%100), graph.NodeID(1000+i%100), 8)
	}
}

// BenchmarkExactColumn measures the dense ground-truth solver on a small
// graph (it is O(n³) and exists only for verification).
func BenchmarkExactColumn(b *testing.B) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{60, 60}, PIn: 0.1, POut: 0.05, Seed: 2, MinOutLink: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := DHTLambda(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExactColumn(g, p, graph.NodeID(i%g.NumNodes())); err != nil {
			b.Fatal(err)
		}
	}
}
