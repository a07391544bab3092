package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/rankjoin"
)

// pjiStreamCold prepares BenchmarkPJIStreamCold's workload: 64 queries over
// 60-node subsets of distinct Yeast classes, the joinN_stream workload's four
// query shapes (chain-3, triangle-3, star-4, chain-4, with the edge directions
// njoind's "shape" expands to) round-robin, and the spec they share — k = 20
// on a pooled engine set, as a serving session holds it. Subsets do not
// repeat within the 64 queries.
func pjiStreamCold(tb testing.TB) (Spec, []*QueryGraph) {
	tb.Helper()
	ds, err := dataset.Yeast(1)
	if err != nil {
		tb.Fatal(err)
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
	if base.Pool, err = dht.NewEnginePool(base.Graph, base.Params, base.D); err != nil {
		tb.Fatal(err)
	}
	return base, queries
}

// BenchmarkPJIStreamCold is the repository benchmark's joinN_stream request
// without the server around it: a fresh PJ-i stream per iteration over one of
// pjiStreamCold's queries, m = 50, pulled to k = 20. The time is the
// per-edge initial joins, their F maintenance and refinements, and the rank
// join; first-ns/op is the part of it before the first answer (the module's
// ttfr_p50_ms without the server). The reported walk counters are per request
// and — unlike the times — identical on every machine (at a fixed -benchtime
// Nx).
func BenchmarkPJIStreamCold(b *testing.B) {
	base, queries := pjiStreamCold(b)
	var work dht.Counters
	base.Counters = &work
	var first time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := base
		spec.Query = queries[i%len(queries)]
		alg, err := NewPJI(spec, 50)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		st, err := alg.Stream()
		if err != nil {
			b.Fatal(err)
		}
		answers, err := drainTuples(st, 1)
		first += time.Since(start)
		if err == nil {
			var rest []Answer
			rest, err = drainTuples(st, spec.K-1)
			answers = append(answers, rest...)
		}
		st.Release()
		if err != nil {
			b.Fatal(err)
		}
		if len(answers) != spec.K {
			b.Fatalf("%d answers, want %d", len(answers), spec.K)
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(first.Nanoseconds())/n, "first-ns/op")
	b.ReportMetric(float64(work.Walks)/n, "walks/op")
	b.ReportMetric(float64(work.EdgeSweeps)/n, "sweeps/op")
	b.ReportMetric(float64(work.FrontierEdges)/n, "frontier-edges/op")
}

// TestPJIWorkGate runs BenchmarkPJIStreamCold's 64 queries once each and
// bounds the PJ-i walk work per request: the counters are exact on every
// machine, so a change that makes the refinements walk more fails here
// rather than as noise in a timing. Every answer list must equal — pairs,
// float64 scores and order — the one the same query gets from forced PJ,
// whose edges re-run a from-scratch join instead of refining F.
func TestPJIWorkGate(t *testing.T) {
	const maxWalks, maxSweeps = 587, 69 // per request
	base, queries := pjiStreamCold(t)
	var work dht.Counters
	for _, q := range queries {
		spec := base
		spec.Query = q
		spec.Counters = &work
		alg, err := NewPJI(spec, 50)
		if err != nil {
			t.Fatal(err)
		}
		got, err := alg.Run()
		if err != nil {
			t.Fatal(err)
		}
		// No edge of PJ-i was pulled past 50 + Refetches, so PJ with that
		// budget answers from one re-join per edge.
		spec.Counters = nil
		ref, err := NewPJ(spec, 50+int(alg.Stats.Refetches))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, func(a, b Answer) bool {
			return a.Score == b.Score && slices.Equal(a.Nodes, b.Nodes)
		}) {
			t.Fatalf("query %v: PJ-i answered %v, PJ %v", q, got, want)
		}
	}
	n := float64(len(queries))
	walks, sweeps := float64(work.Walks)/n, float64(work.EdgeSweeps)/n
	t.Logf("per request: %.2f walks, %.2f sweeps, %.0f frontier edges", walks, sweeps, float64(work.FrontierEdges)/n)
	if walks > maxWalks || sweeps > maxSweeps {
		t.Fatalf("PJ-i did %.2f walks and %.2f sweeps per request, bound %d and %d", walks, sweeps, maxWalks, maxSweeps)
	}
}

// TestPJIManyEdgesMatchesPJ runs PJ-i over a 5-clique of Yeast classes: 20
// query edges, so the Y⁺ₗ tables take three lane walks of at most W = 8. The
// answers must equal — pairs, float64 scores and order — forced PJ's, and the
// tables must count one walk per edge.
func TestPJIManyEdgesMatchesPJ(t *testing.T) {
	base, _ := pjiStreamCold(t)
	ds, err := dataset.Yeast(1)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]*graph.NodeSet, 5)
	for i := range sets {
		sets[i] = ds.Sets[i].Take(30)
	}
	spec := base
	spec.Query, spec.K = Clique(sets...), 10
	if n := len(spec.Query.Edges()); n <= 2*dht.DefaultBatchWidth {
		t.Fatalf("%d query edges, want more than two lane walks' worth", n)
	}
	alg, err := NewPJI(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPJ(spec, 5+int(alg.Stats.Refetches))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != spec.K || !slices.EqualFunc(got, want, func(a, b Answer) bool {
		return a.Score == b.Score && slices.Equal(a.Nodes, b.Nodes)
	}) {
		t.Fatalf("PJ-i answered %v, PJ %v", got, want)
	}

	cfgs := make([]join2.Config, len(spec.Query.Edges()))
	var work dht.Counters
	for ei, e := range spec.Query.Edges() {
		cfgs[ei] = edgeConfig(&spec, e, &work)
	}
	if err := join2.YBoundTables(cfgs); err != nil {
		t.Fatal(err)
	}
	if work.Walks != int64(len(cfgs)) {
		t.Fatalf("%d tables counted %d walks", len(cfgs), work.Walks)
	}
}
