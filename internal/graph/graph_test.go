package graph

import (
	"math"
	"testing"
)

func mustGrid(t testing.TB, w, h int) *Graph {
	t.Helper()
	g, err := GenerateGrid(w, h)
	if err != nil {
		t.Fatalf("GenerateGrid(%d,%d): %v", w, h, err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, true).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
}

func TestBuilderDirected(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(0, 2, 3)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 1 || g.OutDegree(2) != 0 {
		t.Fatalf("out degrees wrong: %d %d %d", g.OutDegree(0), g.OutDegree(1), g.OutDegree(2))
	}
	if g.InDegree(2) != 2 {
		t.Fatalf("InDegree(2) = %d, want 2", g.InDegree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderUndirectedAddsBothArcs(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 1, 5)
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing a direction")
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 1, 2.5)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after merge", g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3.5 {
		t.Fatalf("merged weight = %v,%v, want 3.5,true", w, ok)
	}
}

func TestTransitionProbabilitiesSumToOne(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 2)
	b.AddEdge(0, 3, 3)
	g := b.Build()
	_, _, p := g.OutEdges(0)
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("transition row sums to %v", sum)
	}
	// Weighted proportions: 1/6, 2/6, 3/6.
	want := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i := range p {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestInEdgesMirrorOutEdges(t *testing.T) {
	g := mustGrid(t, 3, 3)
	// Every out arc (u,v) must appear as an in arc at v with same weight/prob.
	for u := 0; u < g.NumNodes(); u++ {
		to, w, p := g.OutEdges(NodeID(u))
		for j := range to {
			from, iw, ip := g.InEdges(to[j])
			found := false
			for i := range from {
				if from[i] == NodeID(u) {
					found = true
					if iw[i] != w[j] || ip[i] != p[j] {
						t.Fatalf("in-edge (%d,%d) weight/prob mismatch", u, to[j])
					}
				}
			}
			if !found {
				t.Fatalf("arc (%d,%d) missing from in-adjacency", u, to[j])
			}
		}
	}
}

// TestValidateInAdjacencyMirror: every construction path yields a graph
// whose in-lists mirror its out-lists exactly (ascending sources, inP
// bit-equal to outP) — the invariant the backward gather step rests on —
// and Validate notices when one does not.
func TestValidateInAdjacencyMirror(t *testing.T) {
	built, err := GeneratePreferential(300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	outIndex, outTo, outW := built.CSR()
	reloaded, err := NewFromCSR(built.NumNodes(), outIndex, outTo, outW, nil)
	if err != nil {
		t.Fatal(err)
	}
	edited, err := ApplyEdits(built, []Edge{{U: 5, V: 5, W: 2}, {U: 7, V: 301, W: 0.5}, {U: 0, V: 1, W: 3}}, [][2]NodeID{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"Builder.Build": built, "NewFromCSR": reloaded, "ApplyEdits": edited,
	} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	lo := reloaded.inIndex[3] // node 3 is in the seed clique: several in-arcs
	if reloaded.inIndex[4]-lo < 2 {
		t.Fatal("want a node with two in-arcs to corrupt")
	}
	corrupt := map[string]func(){
		"inP off by one ulp": func() { reloaded.inP[lo] = math.Nextafter(reloaded.inP[lo], 2) },
		"in-list out of order": func() {
			reloaded.inFrom[lo], reloaded.inFrom[lo+1] = reloaded.inFrom[lo+1], reloaded.inFrom[lo]
		},
	}
	for name, breakIt := range corrupt {
		keepP, keepFrom := reloaded.inP[lo], [2]NodeID{reloaded.inFrom[lo], reloaded.inFrom[lo+1]}
		breakIt()
		if err := reloaded.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted the graph", name)
		}
		reloaded.inP[lo], reloaded.inFrom[lo], reloaded.inFrom[lo+1] = keepP, keepFrom[0], keepFrom[1]
	}
	if err := reloaded.Validate(); err != nil {
		t.Fatalf("restored graph: %v", err)
	}
}

func TestHasEdgeAndWeight(t *testing.T) {
	g := mustGrid(t, 2, 2)
	if !g.HasEdge(0, 1) {
		t.Fatal("grid edge (0,1) missing")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("diagonal (0,3) should not exist in a grid")
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("EdgeWeight found nonexistent edge")
	}
}

func TestAddEdgePanicsOnBadInput(t *testing.T) {
	cases := []struct {
		name string
		fn   func(b *Builder)
	}{
		{"out of range", func(b *Builder) { b.AddEdge(0, 99, 1) }},
		{"negative node", func(b *Builder) { b.AddEdge(-1, 0, 1) }},
		{"zero weight", func(b *Builder) { b.AddEdge(0, 1, 0) }},
		{"negative weight", func(b *Builder) { b.AddEdge(0, 1, -1) }},
		{"NaN weight", func(b *Builder) { b.AddEdge(0, 1, math.NaN()) }},
		{"Inf weight", func(b *Builder) { b.AddEdge(0, 1, math.Inf(1)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn(NewBuilder(3, true))
		})
	}
}

func TestLabels(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 1)
	b.SetLabel(0, "alice")
	g := b.Build()
	if !g.Labeled() {
		t.Fatal("graph should be labeled")
	}
	if g.Label(0) != "alice" || g.Label(1) != "" {
		t.Fatalf("labels = %q, %q", g.Label(0), g.Label(1))
	}
	unlabeled := mustGrid(t, 2, 2)
	if unlabeled.Labeled() || unlabeled.Label(0) != "" {
		t.Fatal("grid should be unlabeled")
	}
}

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet("X", []NodeID{3, 1, 3, 2})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dup dropped)", s.Len())
	}
	if !s.Contains(1) || s.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if got := s.Sorted(); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Sorted = %v", got)
	}
	if got := s.Nodes(); got[0] != 3 {
		t.Fatalf("insertion order lost: %v", got)
	}
	if tk := s.Take(2); tk.Len() != 2 || tk.Take(99).Len() != 2 {
		t.Fatal("Take wrong")
	}
}

func TestNodeSetValidate(t *testing.T) {
	g := mustGrid(t, 2, 2)
	if err := NewNodeSet("ok", []NodeID{0, 3}).Validate(g); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	if err := NewNodeSet("bad", []NodeID{0, 4}).Validate(g); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestNodeSetIntersect(t *testing.T) {
	a := NewNodeSet("A", []NodeID{1, 2, 3})
	b := NewNodeSet("B", []NodeID{2, 3, 4})
	got := a.Intersect(b)
	if got.Len() != 2 || !got.Contains(2) || !got.Contains(3) {
		t.Fatalf("Intersect = %v", got.Nodes())
	}
}

func TestSubgraph(t *testing.T) {
	g := mustGrid(t, 3, 1) // path 0-1-2
	sub, orig := Subgraph(g, []NodeID{0, 1})
	if sub.NumNodes() != 2 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	if sub.NumEdges() != 2 { // 0-1 both directions
		t.Fatalf("sub edges = %d", sub.NumEdges())
	}
	if orig[0] != 0 || orig[1] != 1 {
		t.Fatalf("orig map = %v", orig)
	}
}

func TestRemoveEdges(t *testing.T) {
	g := mustGrid(t, 3, 1)
	g2 := RemoveEdges(g, [][2]NodeID{{0, 1}})
	if g2.HasEdge(0, 1) || g2.HasEdge(1, 0) {
		t.Fatal("removed edge still present")
	}
	if !g2.HasEdge(1, 2) {
		t.Fatal("unrelated edge removed")
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatal("node count changed")
	}
}

func TestComputeStats(t *testing.T) {
	g := mustGrid(t, 2, 2) // 4 nodes, 4 undirected edges = 8 arcs
	s := ComputeStats(g)
	if s.Nodes != 4 || s.Arcs != 8 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 || s.LargestComp != 4 {
		t.Fatalf("components wrong: %+v", s)
	}
	if s.Sinks != 0 || s.MinOutDeg != 2 || s.MaxOutDeg != 2 {
		t.Fatalf("degrees wrong: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestStatsDisconnected(t *testing.T) {
	b := NewBuilder(5, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	s := ComputeStats(g)
	if s.Components != 3 { // {0,1}, {2,3}, {4}
		t.Fatalf("components = %d, want 3", s.Components)
	}
	if s.LargestComp != 2 {
		t.Fatalf("largest = %d, want 2", s.LargestComp)
	}
}
