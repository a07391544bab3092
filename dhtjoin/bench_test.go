package dhtjoin

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// The micro-benchmarks the end-to-end ladder (benchmark/) has no rung for.

// benchWorld is a 2400-node community graph with its three 800-node sets.
func benchWorld(b *testing.B) (*Graph, []*NodeSet) {
	b.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{800, 800, 800}, PIn: 0.008, POut: 0.008, Seed: 3, MinOutLink: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g, sets
}

// BenchmarkPlanOverhead prices one Explain: the throw-away session,
// workload assembly and the full candidate cost table against the graph's
// cached stats. The budget is 100µs per query.
func BenchmarkPlanOverhead(b *testing.B) {
	g, sets := benchWorld(b)
	qy := NewPairQuery(g, sets[0].Take(100), sets[1].Take(100))
	ctx := context.Background()
	if _, err := qy.Explain(ctx); err != nil { // warm the stats cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qy.Explain(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
