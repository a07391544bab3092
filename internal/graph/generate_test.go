package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestGenerateCommunityShape(t *testing.T) {
	cfg := CommunityConfig{
		Sizes: []int{50, 50, 50}, PIn: 0.2, POut: 0.02, Seed: 42, MaxWeight: 5,
	}
	g, sets, err := GenerateCommunity(cfg)
	if err != nil {
		t.Fatalf("GenerateCommunity: %v", err)
	}
	if g.NumNodes() != 150 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if len(sets) != 3 || sets[0].Len() != 50 {
		t.Fatalf("sets wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Within-community arcs should dominate cross arcs.
	within, cross := 0, 0
	community := make([]int, g.NumNodes())
	for c, s := range sets {
		for _, id := range s.Nodes() {
			community[id] = c
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		to, _, _ := g.OutEdges(NodeID(u))
		for _, v := range to {
			if community[u] == community[v] {
				within++
			} else {
				cross++
			}
		}
	}
	if within <= cross {
		t.Fatalf("community structure too weak: within=%d cross=%d", within, cross)
	}
}

func TestGenerateCommunityDeterministic(t *testing.T) {
	cfg := CommunityConfig{Sizes: []int{30, 30}, PIn: 0.3, POut: 0.05, Seed: 11}
	g1, _, err1 := GenerateCommunity(cfg)
	g2, _, err2 := GenerateCommunity(cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("non-deterministic: %d vs %d edges", g1.NumEdges(), g2.NumEdges())
	}
}

func TestGenerateCommunityMinOutLink(t *testing.T) {
	g, _, err := GenerateCommunity(CommunityConfig{
		Sizes: []int{40, 40}, PIn: 0.02, POut: 0.0, Seed: 5, MinOutLink: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(NodeID(u)) < 2 {
			t.Fatalf("node %d has out-degree %d < MinOutLink", u, g.OutDegree(NodeID(u)))
		}
	}
}

func TestGenerateCommunityErrors(t *testing.T) {
	if _, _, err := GenerateCommunity(CommunityConfig{}); err == nil {
		t.Fatal("empty sizes accepted")
	}
	if _, _, err := GenerateCommunity(CommunityConfig{Sizes: []int{0}}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, _, err := GenerateCommunity(CommunityConfig{Sizes: []int{5}, PIn: 2}); err == nil {
		t.Fatal("p > 1 accepted")
	}
}

func TestGeneratePreferential(t *testing.T) {
	g, err := GeneratePreferential(200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(g)
	if s.Components != 1 {
		t.Fatalf("BA graph disconnected: %d components", s.Components)
	}
	// Preferential attachment yields a heavy tail: max degree well above mean.
	if float64(s.MaxOutDeg) < 3*s.MeanOutDeg {
		t.Fatalf("degree distribution too flat: max=%d mean=%.1f", s.MaxOutDeg, s.MeanOutDeg)
	}
	if _, err := GeneratePreferential(1, 1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
}

// TestGeneratePreferentialReproducible: one seed is one graph — two calls
// must agree on every CSR array, not just on the shape.
func TestGeneratePreferentialReproducible(t *testing.T) {
	a, err := GeneratePreferential(400, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePreferential(400, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	ai, at, aw := a.CSR()
	bi, bt, bw := b.CSR()
	if !slices.Equal(ai, bi) || !slices.Equal(at, bt) || !slices.Equal(aw, bw) {
		t.Fatal("two calls with one seed built different graphs")
	}
}

func TestGenerateER(t *testing.T) {
	g, err := GenerateER(100, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := ComputeStats(g)
	if st.Sinks != 0 {
		t.Fatalf("ER generator left %d sinks", st.Sinks)
	}
	// Expected arcs ≈ n(n-1)p = 495; allow generous slack.
	if st.Arcs < 300 || st.Arcs > 750 {
		t.Fatalf("arc count %d far from expectation 495", st.Arcs)
	}
	if _, err := GenerateER(1, 0.5, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := GenerateER(10, 0, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestGenerateRing(t *testing.T) {
	g, err := GenerateRing(20, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(NodeID(u)) != 4 {
			t.Fatalf("ring node %d degree %d, want 4", u, g.OutDegree(NodeID(u)))
		}
	}
	if _, err := GenerateRing(20, 2, 0.3, 1); err != nil {
		t.Fatalf("rewired ring: %v", err)
	}
	if _, err := GenerateRing(4, 2, 0, 0); err == nil {
		t.Fatal("2k>=n accepted")
	}
}

func TestGenerateGridShape(t *testing.T) {
	g, err := GenerateGrid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Arcs: horizontal 3*3 + vertical 4*2 = 17 undirected → 34 arcs.
	if g.NumEdges() != 34 {
		t.Fatalf("arcs = %d, want 34", g.NumEdges())
	}
	if _, err := GenerateGrid(0, 3); err == nil {
		t.Fatal("w=0 accepted")
	}
}

func TestGenerateBipartite(t *testing.T) {
	g, sets, err := GenerateBipartite(30, 40, 0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[0].Len() != 30 || sets[1].Len() != 40 {
		t.Fatal("parts wrong")
	}
	// No within-part edges.
	for _, l := range sets[0].Nodes() {
		to, _, _ := g.OutEdges(l)
		for _, v := range to {
			if sets[0].Contains(v) {
				t.Fatalf("within-part edge (%d,%d)", l, v)
			}
		}
	}
	st := ComputeStats(g)
	if st.Sinks != 0 {
		t.Fatalf("bipartite generator left %d sinks", st.Sinks)
	}
}

func TestDecodePair(t *testing.T) {
	s := 5
	seen := make(map[[2]int]bool)
	total := s * (s - 1) / 2
	for idx := 0; idx < total; idx++ {
		i, j := decodePair(idx, s)
		if i < 0 || j <= i || j >= s {
			t.Fatalf("decodePair(%d,%d) = (%d,%d) invalid", idx, s, i, j)
		}
		key := [2]int{i, j}
		if seen[key] {
			t.Fatalf("pair (%d,%d) produced twice", i, j)
		}
		seen[key] = true
	}
	if len(seen) != total {
		t.Fatalf("covered %d of %d pairs", len(seen), total)
	}
}

// Property: all generators yield graphs that pass Validate and have rows
// summing to one.
func TestGeneratorsValidateProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfgs := []func() (*Graph, error){
			func() (*Graph, error) {
				g, _, err := GenerateCommunity(CommunityConfig{Sizes: []int{15, 10}, PIn: 0.3, POut: 0.1, Seed: seed, MaxWeight: 3})
				return g, err
			},
			func() (*Graph, error) { return GeneratePreferential(50, 2, seed) },
			func() (*Graph, error) { return GenerateER(40, 0.1, seed) },
			func() (*Graph, error) { return GenerateRing(30, 3, 0.2, seed) },
		}
		for _, mk := range cfgs {
			g, err := mk()
			if err != nil || g.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricSkipBounds(t *testing.T) {
	// p=1 must always return 0 (every trial succeeds).
	rngSeeded := func(seed int64) bool {
		g, err := GenerateER(10, 1, seed)
		if err != nil {
			return false
		}
		// With p=1 every ordered non-self pair exists: 10*9 arcs.
		return g.NumEdges() == 90
	}
	if !rngSeeded(1) || !rngSeeded(2) {
		t.Fatal("p=1 did not produce the complete graph")
	}
}
