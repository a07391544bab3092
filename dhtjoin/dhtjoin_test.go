package dhtjoin_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/dhtjoin"
)

// world builds a small two-community graph.
func world(t testing.TB) (*dhtjoin.Graph, *dhtjoin.NodeSet, *dhtjoin.NodeSet, *dhtjoin.NodeSet) {
	t.Helper()
	const n = 30
	b := dhtjoin.NewBuilder(n, false)
	// Ring plus chords: connected, irregular.
	for i := 0; i < n; i++ {
		b.AddEdge(dhtjoin.NodeID(i), dhtjoin.NodeID((i+1)%n), 1)
		if i%3 == 0 {
			b.AddEdge(dhtjoin.NodeID(i), dhtjoin.NodeID((i+7)%n), 2)
		}
	}
	g := b.Build()
	p := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0, 1, 2, 3, 4})
	q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{10, 11, 12, 13})
	r := dhtjoin.NewNodeSet("R", []dhtjoin.NodeID{20, 21, 22})
	return g, p, q, r
}

func TestTopKPairsDefaults(t *testing.T) {
	g, p, q, _ := world(t)
	pairs, err := dhtjoin.TopKPairs(g, p, q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Score > pairs[i-1].Score+1e-12 {
			t.Fatal("pairs not descending")
		}
	}
	// Scores must match direct evaluation.
	s, err := dhtjoin.Score(g, pairs[0].Pair.P, pairs[0].Pair.Q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-pairs[0].Score) > 1e-9 {
		t.Fatalf("Score = %v, join said %v", s, pairs[0].Score)
	}
}

func TestScoresFromMatchesScore(t *testing.T) {
	g, p, _, _ := world(t)
	out, err := dhtjoin.ScoresFrom(g, 10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != g.NumNodes() {
		t.Fatalf("len = %d", len(out))
	}
	for _, u := range p.Nodes() {
		s, err := dhtjoin.Score(g, u, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-out[u]) > 1e-9 {
			t.Fatalf("mismatch at %d: %v vs %v", u, s, out[u])
		}
	}
}

func TestTopKNWay(t *testing.T) {
	g, p, q, r := world(t)
	ans, err := dhtjoin.TopK(g, dhtjoin.Chain(p, q, r), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 {
		t.Fatalf("got %d answers", len(ans))
	}
	for _, a := range ans {
		if len(a.Nodes) != 3 {
			t.Fatalf("answer arity %d", len(a.Nodes))
		}
		if !p.Contains(a.Nodes[0]) || !q.Contains(a.Nodes[1]) || !r.Contains(a.Nodes[2]) {
			t.Fatalf("answer %v violates set membership", a.Nodes)
		}
	}
}

func TestTopKWithOptions(t *testing.T) {
	g, p, q, r := world(t)
	opts := &dhtjoin.Options{
		Params:  dhtjoin.DHTE(),
		Epsilon: 1e-4,
		Agg:     dhtjoin.Sum,
		M:       10,
	}
	ans, err := dhtjoin.TopK(g, dhtjoin.Triangle(p, q, r), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 {
		t.Fatalf("got %d answers", len(ans))
	}
}

func TestOptionsValidation(t *testing.T) {
	g, p, q, _ := world(t)
	if _, err := dhtjoin.TopKPairs(g, p, q, 3, &dhtjoin.Options{Params: dhtjoin.Params{Alpha: 1, Beta: 0, Lambda: 7}}); err == nil {
		t.Fatal("bad lambda accepted")
	}
	if _, err := dhtjoin.TopKPairs(g, p, q, 3, &dhtjoin.Options{D: -2}); err == nil {
		t.Fatal("negative d accepted")
	}
	if _, err := dhtjoin.TopK(g, dhtjoin.Chain(p, q), 3, &dhtjoin.Options{M: -1}); err == nil {
		t.Fatal("negative m accepted")
	}
}

func TestPPRThroughFacade(t *testing.T) {
	g, p, q, r := world(t)
	opts := &dhtjoin.Options{Params: dhtjoin.PPR(0.5), MeasureName: "reach"}
	pairs, err := dhtjoin.TopKPairs(g, p, q, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		if pr.Score < 0 || pr.Score >= 1 {
			t.Fatalf("PPR score out of range: %v", pr)
		}
		s, err := dhtjoin.Score(g, pr.Pair.P, pr.Pair.Q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-pr.Score) > 1e-9 {
			t.Fatalf("facade Score %v vs join %v", s, pr.Score)
		}
	}
	ans, err := dhtjoin.TopK(g, dhtjoin.Chain(p, q, r), 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 {
		t.Fatalf("got %d PPR answers", len(ans))
	}
}

func TestSimRankThroughFacade(t *testing.T) {
	g, p, q, r := world(t)
	m, err := dhtjoin.ComputeSimRank(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	query := dhtjoin.Chain(p, q, r)
	lists := make([][]dhtjoin.PairResult, 2)
	edges := query.Edges()
	for i := range edges {
		lists[i], err = m.EdgeList(query.Set(edges[i].From).Nodes(), query.Set(edges[i].To).Nodes())
		if err != nil {
			t.Fatal(err)
		}
	}
	ans, err := dhtjoin.JoinLists(query, lists, dhtjoin.Min, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 {
		t.Fatalf("got %d SimRank answers", len(ans))
	}
	for i := 1; i < len(ans); i++ {
		if ans[i].Score > ans[i-1].Score+1e-12 {
			t.Fatal("SimRank answers not descending")
		}
	}
}

func TestSteps(t *testing.T) {
	if d := dhtjoin.Steps(dhtjoin.DHTLambda(0.2), 1e-6); d != 8 {
		t.Fatalf("Steps = %d, want 8 (paper §VII-A)", d)
	}
}

func TestTextRoundTripThroughFacade(t *testing.T) {
	g, p, q, _ := world(t)
	var buf bytes.Buffer
	if err := dhtjoin.WriteText(&buf, g, p, q); err != nil {
		t.Fatal(err)
	}
	g2, sets, err := dhtjoin.ReadText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || len(sets) != 2 {
		t.Fatal("round trip mismatch")
	}
	// Joins over the reloaded graph agree.
	a, err := dhtjoin.TopKPairs(g, p, q, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dhtjoin.TopKPairs(g2, sets[0], sets[1], 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-12 {
			t.Fatalf("rank %d: %v vs %v", i, a[i].Score, b[i].Score)
		}
	}
}
