package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/rankjoin"
)

// BenchmarkPJIStreamCold is the repository benchmark's joinN_stream request
// without the server around it: a fresh PJ-i stream per iteration over
// 60-node subsets of distinct Yeast classes, the workload's four query shapes
// (chain-3, triangle-3, star-4, chain-4, with the edge directions njoind's
// "shape" expands to) round-robin, m = 50, pulled to k = 20, on a pooled
// engine set and a shared 256-column memo as a serving session holds them.
// Subsets do not repeat within the 64 prepared queries, so the time is the
// per-edge initial joins, their F maintenance and the rank join; the
// reported walk counters are per request and — unlike ns/op — identical on
// every machine (at a fixed -benchtime Nx).
func BenchmarkPJIStreamCold(b *testing.B) {
	ds, err := dataset.Yeast(1)
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		n     int
		edges [][2]int
	}{
		{3, [][2]int{{0, 1}, {1, 2}}},
		{3, [][2]int{{0, 1}, {1, 2}, {2, 0}}},
		{4, [][2]int{{0, 1}, {0, 2}, {0, 3}}},
		{4, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]*QueryGraph, 64)
	for i := range queries {
		sh := shapes[i%len(shapes)]
		sets := make([]*graph.NodeSet, sh.n)
		for si, ci := range rng.Perm(len(ds.Sets))[:sh.n] {
			nodes := ds.Sets[ci].Nodes()
			ids := make([]graph.NodeID, 60)
			for j, at := range rng.Perm(len(nodes))[:60] {
				ids[j] = nodes[at]
			}
			slices.Sort(ids)
			sets[si] = graph.NewNodeSet(fmt.Sprintf("R%d", si), ids)
		}
		queries[i] = NewQueryGraph(sets...)
		for _, e := range sh.edges {
			queries[i].AddEdge(e[0], e[1])
		}
	}
	params := dht.DHTLambda(0.2)
	base := Spec{Graph: ds.Graph, Params: params, D: params.StepsForEpsilon(1e-6), Agg: rankjoin.Min, K: 20}
	pool, err := dht.NewEnginePool(base.Graph, base.Params, base.D)
	if err != nil {
		b.Fatal(err)
	}
	var work dht.Counters
	base.Pool, base.Memo, base.Counters = pool, dht.NewScoreMemo(256), &work
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Query = queries[i%len(queries)]
		alg, err := NewPJI(spec, 50)
		if err != nil {
			b.Fatal(err)
		}
		answers, err := alg.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(answers) != spec.K {
			b.Fatalf("%d answers, want %d", len(answers), spec.K)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(work.Walks)/n, "walks/op")
	b.ReportMetric(float64(work.EdgeSweeps)/n, "sweeps/op")
	b.ReportMetric(float64(work.FrontierEdges)/n, "frontier-edges/op")
}
