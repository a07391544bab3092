package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/rankjoin"
)

// testWorld builds a small community graph with three planted node sets.
func testWorld(t testing.TB, seed int64, sizes ...int) (*graph.Graph, []*graph.NodeSet) {
	t.Helper()
	if len(sizes) == 0 {
		sizes = []int{12, 12, 12}
	}
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: sizes, PIn: 0.3, POut: 0.1, Seed: seed, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, sets
}

func chainSpec(g *graph.Graph, sets []*graph.NodeSet, agg rankjoin.Aggregate, k int) Spec {
	return Spec{
		Graph:  g,
		Query:  Chain(sets...),
		Params: dht.DHTLambda(0.2),
		D:      8,
		Agg:    agg,
		K:      k,
	}
}

// assertSameAnswers compares ranked answer lists by score sequence and by
// tuple set modulo equal-score permutation.
func assertSameAnswers(t *testing.T, name string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, want %d", name, len(got), len(want))
	}
	const tol = 1e-9
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > tol {
			t.Fatalf("%s: rank %d score %v, want %v", name, i, got[i].Score, want[i].Score)
		}
	}
	wantKeys := make(map[string]float64, len(want))
	for _, a := range want {
		wantKeys[answerKey(a.Nodes)] = a.Score
	}
	for _, a := range got {
		if ws, ok := wantKeys[answerKey(a.Nodes)]; ok {
			if math.Abs(ws-a.Score) > tol {
				t.Fatalf("%s: tuple %v score %v vs reference %v", name, a.Nodes, a.Score, ws)
			}
			continue
		}
		// Tuple differs: acceptable only on an equal-score boundary.
		tied := false
		for _, w := range wantKeys {
			if math.Abs(w-a.Score) <= tol {
				tied = true
				break
			}
		}
		if !tied {
			t.Fatalf("%s: tuple %v (score %v) missing from reference", name, a.Nodes, a.Score)
		}
	}
}

func allAlgorithms(t *testing.T, spec Spec, m int) []Algorithm {
	t.Helper()
	nl, err := NewNL(spec)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := NewAP(spec)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewPJ(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	pji, err := NewPJI(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	return []Algorithm{nl, ap, pj, pji}
}

// TestNWayAlgorithmsAgree is the central n-way equivalence test: NL, AP, PJ,
// and PJ-i must all match the brute-force join, for chain and triangle query
// graphs under both MIN and SUM.
func TestNWayAlgorithmsAgree(t *testing.T) {
	g, sets := testWorld(t, 7, 8, 8, 8)
	for _, agg := range []rankjoin.Aggregate{rankjoin.Min, rankjoin.Sum} {
		for _, q := range []*QueryGraph{Chain(sets...), Triangle(sets[0], sets[1], sets[2])} {
			spec := Spec{Graph: g, Query: q, Params: dht.DHTLambda(0.2), D: 8, Agg: agg, K: 10}
			want, err := bruteForceJoin(&spec, spec.K)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range allAlgorithms(t, spec, 5) {
				got, err := alg.Run()
				if err != nil {
					t.Fatalf("%s: %v", alg.Name(), err)
				}
				assertSameAnswers(t, alg.Name()+"/"+agg.Name(), got, want)
			}
		}
	}
}

// TestPJSmallM forces heavy getNextNodePair traffic: with m=0 every pair must
// be fetched incrementally, and results must still match.
func TestPJSmallM(t *testing.T) {
	g, sets := testWorld(t, 11, 7, 7)
	spec := chainSpec(g, sets[:2], rankjoin.Min, 8)
	want, err := bruteForceJoin(&spec, spec.K)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewPJ(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pj.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, "PJ(m=0)", got, want)
	if pj.Stats.Refetches == 0 {
		t.Fatal("m=0 run performed no refetches")
	}

	pji, err := NewPJI(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err = pji.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, "PJ-i(m=0)", got, want)
}

// TestPJLargeM: when m covers the whole candidate space, no refetches happen.
func TestPJLargeM(t *testing.T) {
	g, sets := testWorld(t, 13, 6, 6)
	spec := chainSpec(g, sets[:2], rankjoin.Min, 5)
	pj, err := NewPJ(spec, 36)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pj.Run(); err != nil {
		t.Fatal(err)
	}
	if pj.Stats.Refetches != 0 {
		t.Fatalf("refetches = %d with exhaustive m", pj.Stats.Refetches)
	}
}

func TestKLargerThanAnswerSpace(t *testing.T) {
	g, sets := testWorld(t, 17, 4, 4)
	spec := chainSpec(g, sets[:2], rankjoin.Sum, 100)
	want, err := bruteForceJoin(&spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms(t, spec, 5) {
		got, err := alg.Run()
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if len(got) != 16 {
			t.Fatalf("%s: %d answers, want full space 16", alg.Name(), len(got))
		}
		assertSameAnswers(t, alg.Name(), got, want)
	}
}

func TestStarAndCliqueQueries(t *testing.T) {
	g, sets := testWorld(t, 23, 6, 6, 6, 6)
	for _, q := range []*QueryGraph{
		Star(sets[0], sets[1], sets[2], sets[3]),
		Clique(sets[0], sets[1], sets[2]),
	} {
		spec := Spec{Graph: g, Query: q, Params: dht.DHTLambda(0.2), D: 8, Agg: rankjoin.Min, K: 5}
		want, err := bruteForceJoin(&spec, spec.K)
		if err != nil {
			t.Fatal(err)
		}
		pji, err := NewPJI(spec, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pji.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, "PJ-i", got, want)
	}
}

func TestQueryGraphValidate(t *testing.T) {
	g, sets := testWorld(t, 1, 5, 5, 5)
	cases := []struct {
		name string
		q    *QueryGraph
	}{
		{"one set", NewQueryGraph(sets[0])},
		{"no edges", NewQueryGraph(sets[0], sets[1])},
		{"self loop", NewQueryGraph(sets[0], sets[1]).AddEdge(0, 0).AddEdge(0, 1)},
		{"dup edge", NewQueryGraph(sets[0], sets[1]).AddEdge(0, 1).AddEdge(0, 1)},
		{"range", NewQueryGraph(sets[0], sets[1]).AddEdge(0, 5)},
		{"untouched set", NewQueryGraph(sets[0], sets[1], sets[2]).AddEdge(0, 1)},
		{"disconnected", func() *QueryGraph {
			q := NewQueryGraph(sets[0], sets[1], sets[2], sets[0])
			return q.AddEdge(0, 1).AddEdge(2, 3)
		}()},
		{"empty set", NewQueryGraph(sets[0], graph.NewNodeSet("E", nil)).AddEdge(0, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.q.Validate(g) == nil {
				t.Fatal("invalid query graph accepted")
			}
		})
	}
	if err := Chain(sets...).Validate(g); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if err := Triangle(sets[0], sets[1], sets[2]).Validate(g); err != nil {
		t.Fatalf("valid triangle rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	g, sets := testWorld(t, 2, 5, 5)
	good := chainSpec(g, sets[:2], rankjoin.Min, 3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(s *Spec){
		func(s *Spec) { s.Graph = nil },
		func(s *Spec) { s.Query = nil },
		func(s *Spec) { s.Params.Lambda = 0 },
		func(s *Spec) { s.D = 0 },
		func(s *Spec) { s.Agg = nil },
		func(s *Spec) { s.K = 0 },
	}
	for i, mut := range cases {
		s := good
		mut(&s)
		if s.Validate() == nil {
			t.Fatalf("case %d: invalid spec accepted", i)
		}
		if _, err := NewPJ(s, 5); err == nil {
			t.Fatalf("case %d: PJ constructed from invalid spec", i)
		}
	}
	if _, err := NewPJ(good, -1); err == nil {
		t.Fatal("negative m accepted")
	}
	if _, err := NewPJI(good, -1); err == nil {
		t.Fatal("negative m accepted by PJ-i")
	}
}

func TestQueryGraphBuilders(t *testing.T) {
	g, sets := testWorld(t, 3, 4, 4, 4, 4)
	if q := Chain(sets...); len(q.Edges()) != 3 {
		t.Fatalf("chain edges = %d", len(q.Edges()))
	}
	if q := Triangle(sets[0], sets[1], sets[2]); len(q.Edges()) != 6 {
		t.Fatalf("triangle edges = %d", len(q.Edges()))
	}
	if q := Star(sets[0], sets[1:]...); len(q.Edges()) != 3 || q.NumSets() != 4 {
		t.Fatalf("star shape wrong")
	}
	if q := Clique(sets...); len(q.Edges()) != 12 {
		t.Fatalf("clique edges = %d", len(q.Edges()))
	}
	_ = g
}

func TestMaxAnswersSaturates(t *testing.T) {
	huge := graph.NewNodeSet("H", make([]graph.NodeID, 0))
	ids := make([]graph.NodeID, 100000)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	huge = graph.NewNodeSet("H", ids)
	q := NewQueryGraph(huge, huge, huge, huge, huge)
	for i := 0; i+1 < 5; i++ {
		q.AddEdge(i, i+1)
	}
	const maxInt = int(^uint(0) >> 1)
	if got := q.MaxAnswers(); got != maxInt {
		t.Fatalf("MaxAnswers = %d, want saturation", got)
	}
}

func TestAnswerFormat(t *testing.T) {
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	b.SetLabel(0, "Ada")
	g := b.Build()
	a := Answer{Nodes: []graph.NodeID{0, 1}, Score: 0.5}
	got := a.Format(g)
	if got != "(Ada, 1) f=0.500000" {
		t.Fatalf("Format = %q", got)
	}
}

func TestTwoWayKindString(t *testing.T) {
	kinds := []TwoWayKind{TwoWayFBJ, TwoWayBBJ, TwoWayFIDJ, TwoWayBIDJX, TwoWayBIDJY}
	names := []string{"F-BJ", "B-BJ", "F-IDJ", "B-IDJ-X", "B-IDJ-Y"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Fatalf("kind %d = %q, want %q", i, k.String(), names[i])
		}
	}
	if TwoWayKind(99).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
	if _, err := TwoWayKind(99).newJoiner(join2.Config{}); err == nil {
		t.Fatal("unknown kind built a joiner")
	}
}

// TestNWayProperty: random small worlds, random aggregate, PJ-i must match
// brute force.
func TestNWayProperty(t *testing.T) {
	f := func(seed int64, rawAgg uint8, rawK uint8) bool {
		g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
			Sizes: []int{6, 6, 6}, PIn: 0.35, POut: 0.12, Seed: seed, MinOutLink: 1,
		})
		if err != nil {
			return false
		}
		aggs := []rankjoin.Aggregate{rankjoin.Min, rankjoin.Sum, rankjoin.Max, rankjoin.Avg}
		spec := Spec{
			Graph:  g,
			Query:  Chain(sets...),
			Params: dht.DHTLambda(0.3),
			D:      8,
			Agg:    aggs[int(rawAgg)%len(aggs)],
			K:      1 + int(rawK)%12,
		}
		want, err := bruteForceJoin(&spec, spec.clampK())
		if err != nil {
			return false
		}
		pji, err := NewPJI(spec, 4)
		if err != nil {
			return false
		}
		got, err := pji.Run()
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctFiltersSelfTuples: with overlapping node sets, Distinct must
// remove tuples reusing a node, and all algorithms must agree on the result.
func TestDistinctFiltersSelfTuples(t *testing.T) {
	g, sets := testWorld(t, 29, 8, 8)
	// Overlap: both sets share their first four nodes.
	shared := append(append([]graph.NodeID{}, sets[0].Nodes()[:4]...), sets[1].Nodes()...)
	overlapping := graph.NewNodeSet("B+", shared)
	spec := Spec{
		Graph:    g,
		Query:    Chain(sets[0], overlapping),
		Params:   dht.DHTLambda(0.2),
		D:        8,
		Agg:      rankjoin.Min,
		K:        10,
		Distinct: true,
	}
	want, err := bruteForceJoin(&spec, spec.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if w.Nodes[0] == w.Nodes[1] {
			t.Fatal("brute force kept a self tuple under Distinct")
		}
	}
	for _, alg := range allAlgorithms(t, spec, 5) {
		got, err := alg.Run()
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, a := range got {
			if a.Nodes[0] == a.Nodes[1] {
				t.Fatalf("%s returned self tuple %v", alg.Name(), a.Nodes)
			}
		}
		assertSameAnswers(t, alg.Name()+"/distinct", got, want)
	}
	// Sanity: without Distinct, the self tuples top the ranking (score 0).
	spec.Distinct = false
	plain, err := bruteForceJoin(&spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Nodes[0] != plain[0].Nodes[1] || plain[0].Score != 0 {
		t.Fatalf("expected self tuple at rank 1 without Distinct, got %v", plain[0])
	}
}

// TestAlternateTwoWayKinds: PJ and AP must return the same answers no
// matter which 2-way join algorithm backs them.
func TestAlternateTwoWayKinds(t *testing.T) {
	g, sets := testWorld(t, 43, 7, 7)
	spec := chainSpec(g, sets[:2], rankjoin.Min, 6)
	want, err := bruteForceJoin(&spec, spec.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []TwoWayKind{TwoWayFBJ, TwoWayBBJ, TwoWayFIDJ, TwoWayBIDJX, TwoWayBIDJY} {
		pj, err := NewPJWith(spec, 5, kind)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pj.Run()
		if err != nil {
			t.Fatalf("PJ/%s: %v", kind, err)
		}
		assertSameAnswers(t, "PJ/"+kind.String(), got, want)

		ap, err := NewAPWith(spec, kind)
		if err != nil {
			t.Fatal(err)
		}
		got, err = ap.Run()
		if err != nil {
			t.Fatalf("AP/%s: %v", kind, err)
		}
		assertSameAnswers(t, "AP/"+kind.String(), got, want)
	}
}

// TestNWayOverPPR extends the n-way equivalence to the reach measure: all
// four algorithms joined over Personalized PageRank must match brute force.
func TestNWayOverPPR(t *testing.T) {
	g, sets := testWorld(t, 37, 7, 7, 7)
	params := dht.PPR(0.5)
	spec := Spec{
		Graph:   g,
		Query:   Chain(sets...),
		Params:  params,
		D:       params.StepsForEpsilon(1e-7),
		Agg:     rankjoin.Min,
		K:       8,
		Measure: dht.Reach,
	}
	want, err := bruteForceJoin(&spec, spec.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms(t, spec, 5) {
		got, err := alg.Run()
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		assertSameAnswers(t, alg.Name()+"/ppr", got, want)
	}
}

// TestRandomQueryTopologies: PJ-i must match brute force on randomly shaped
// connected query graphs, not just the chain/triangle/star templates.
func TestRandomQueryTopologies(t *testing.T) {
	f := func(seed int64, rawEdges uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
			Sizes: []int{6, 6, 6, 6}, PIn: 0.35, POut: 0.15, Seed: seed, MinOutLink: 1,
		})
		if err != nil {
			return false
		}
		n := 3 + int(rawEdges)%2 // 3 or 4 node sets
		q := NewQueryGraph(sets[:n]...)
		// Spanning tree first (guarantees connectivity), then random extras.
		perm := rng.Perm(n)
		type qe struct{ a, b int }
		used := map[qe]bool{}
		addEdge := func(a, b int) {
			if a == b || used[qe{a, b}] {
				return
			}
			used[qe{a, b}] = true
			q.AddEdge(a, b)
		}
		for i := 1; i < n; i++ {
			a, b := perm[rng.Intn(i)], perm[i]
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			addEdge(a, b)
		}
		extra := int(rawEdges) % 4
		for i := 0; i < extra; i++ {
			addEdge(rng.Intn(n), rng.Intn(n))
		}
		spec := Spec{
			Graph:  g,
			Query:  q,
			Params: dht.DHTLambda(0.25),
			D:      8,
			Agg:    rankjoin.Min,
			K:      6,
		}
		want, err := bruteForceJoin(&spec, spec.K)
		if err != nil {
			return false
		}
		pji, err := NewPJI(spec, 4)
		if err != nil {
			return false
		}
		got, err := pji.Run()
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregateOverDirectedEdges: DHT is asymmetric and the query edge
// direction must be honored.
func TestAggregateOverDirectedEdges(t *testing.T) {
	// DHT is asymmetric: (0→1) and (1→0) edges must give different scores on
	// a directed graph, and the query edge direction must be honored.
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(1, 0, 1) // extra arc making h(0→1) ≠ h(1→0)
	g := b.Build()
	p := graph.NewNodeSet("P", []graph.NodeID{0})
	q := graph.NewNodeSet("Q", []graph.NodeID{1})
	fwd := Spec{Graph: g, Query: NewQueryGraph(p, q).AddEdge(0, 1), Params: dht.DHTLambda(0.5), D: 8, Agg: rankjoin.Sum, K: 1}
	rev := Spec{Graph: g, Query: NewQueryGraph(p, q).AddEdge(1, 0), Params: dht.DHTLambda(0.5), D: 8, Agg: rankjoin.Sum, K: 1}
	af, err := NewAP(fwd)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := NewAP(rev)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := af.Run()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ar.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rf[0].Score-rr[0].Score) < 1e-9 {
		t.Fatalf("direction ignored: both %v", rf[0].Score)
	}
}

// TestRunStatsFrontierCounters: short-walk-heavy PJ-i runs should be served
// mostly by the sparse kernel — frontier edges recorded, and dense sweeps
// only where the frontier saturates.
func TestRunStatsFrontierCounters(t *testing.T) {
	g, sets := testWorld(t, 7, 16, 16)
	spec := chainSpec(g, sets, rankjoin.Min, 5)
	pji, err := NewPJI(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pji.Run(); err != nil {
		t.Fatal(err)
	}
	st := pji.Stats
	if st.DHTWalks == 0 {
		t.Fatal("no walks recorded")
	}
	if st.DHTFrontierEdges == 0 && st.DHTEdgeSweeps == 0 {
		t.Fatalf("no walk work recorded: %+v", st)
	}
}

// TestNewNamedServedOnly: NewNamed opens exactly the served n-way executors.
// NL and PJ stay constructible directly for the paper's reproduction, but by
// name they are as unknown as a typo.
func TestNewNamedServedOnly(t *testing.T) {
	g, sets := testWorld(t, 7, 8, 8, 8)
	spec := Spec{Graph: g, Query: Chain(sets...), Params: dht.DHTLambda(0.2), D: 8, Agg: rankjoin.Min, K: 5}
	for _, name := range []string{"AP", "PJ-i"} {
		alg, err := NewNamed(name, spec, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := alg.Run(); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
	for _, name := range []string{"NL", "PJ", "nope", ""} {
		if alg, err := NewNamed(name, spec, 5); err == nil {
			t.Fatalf("NewNamed(%q) = %v, want an error", name, alg)
		}
	}
}
