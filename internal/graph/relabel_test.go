package graph

import (
	"math"
	"sync"
	"testing"
)

func relabelTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, _, err := GenerateCommunity(CommunityConfig{
		Sizes: []int{30, 25}, PIn: 0.15, POut: 0.05, Seed: 9, MaxWeight: 4, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRelabelingBijection: both orderings must produce a permutation whose
// two maps invert each other.
func TestRelabelingBijection(t *testing.T) {
	g := relabelTestGraph(t)
	for name, mk := range map[string]func(*Graph) *Relabeling{
		"degree": DegreeOrder,
		"bfs":    BFSOrder,
	} {
		r := mk(g)
		if r.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: relabeling covers %d nodes, want %d", name, r.NumNodes(), g.NumNodes())
		}
		seen := make([]bool, g.NumNodes())
		for u := 0; u < g.NumNodes(); u++ {
			nu := r.ToNew(NodeID(u))
			if r.ToOld(nu) != NodeID(u) {
				t.Fatalf("%s: ToOld(ToNew(%d)) = %d", name, u, r.ToOld(nu))
			}
			if seen[nu] {
				t.Fatalf("%s: new id %d assigned twice", name, nu)
			}
			seen[nu] = true
		}
	}
}

// TestRelabelApplyPreservesStructure: the relabeled graph must validate, and
// every arc with its weight and transition probability must map over
// exactly — same edge multiset under the id bijection, same per-edge p.
func TestRelabelApplyPreservesStructure(t *testing.T) {
	g := relabelTestGraph(t)
	for name, mk := range map[string]func(*Graph) (*Graph, *Relabeling){
		"degree": RelabelDegree,
		"bfs":    RelabelBFS,
	} {
		rg, r := mk(g)
		if err := rg.Validate(); err != nil {
			t.Fatalf("%s: relabeled graph invalid: %v", name, err)
		}
		if rg.NumNodes() != g.NumNodes() || rg.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: size changed: %d/%d nodes, %d/%d edges",
				name, rg.NumNodes(), g.NumNodes(), rg.NumEdges(), g.NumEdges())
		}
		for u := 0; u < g.NumNodes(); u++ {
			to, w, p := g.OutEdges(NodeID(u))
			for j := range to {
				nw, ok := rg.EdgeWeight(r.ToNew(NodeID(u)), r.ToNew(to[j]))
				if !ok {
					t.Fatalf("%s: arc (%d,%d) missing after relabel", name, u, to[j])
				}
				if nw != w[j] {
					t.Fatalf("%s: arc (%d,%d) weight %v != %v", name, u, to[j], nw, w[j])
				}
				_ = p
			}
			// Transition rows must carry the same distribution: compare the
			// probability of each mapped arc.
			nto, _, np := rg.OutEdges(r.ToNew(NodeID(u)))
			probOf := make(map[NodeID]float64, len(nto))
			for j := range nto {
				probOf[nto[j]] = np[j]
			}
			for j := range to {
				got := probOf[r.ToNew(to[j])]
				if math.Abs(got-p[j]) > 1e-15 {
					t.Fatalf("%s: arc (%d,%d) transition prob %v != %v", name, u, to[j], got, p[j])
				}
			}
		}
		if g.Labeled() {
			for u := 0; u < g.NumNodes(); u++ {
				if rg.Label(r.ToNew(NodeID(u))) != g.Label(NodeID(u)) {
					t.Fatalf("%s: label of %d not carried over", name, u)
				}
			}
		}
	}
}

// TestDegreeOrderIsDescending pins the ordering property the cache argument
// rests on.
func TestDegreeOrderIsDescending(t *testing.T) {
	g := relabelTestGraph(t)
	rg, r := RelabelDegree(g)
	prev := math.MaxInt
	for nu := 0; nu < rg.NumNodes(); nu++ {
		d := rg.OutDegree(NodeID(nu)) + rg.InDegree(NodeID(nu))
		if d > prev {
			t.Fatalf("degree order violated at new id %d: %d > %d", nu, d, prev)
		}
		prev = d
	}
	_ = r
}

// TestRelabelMapHelpers covers the slice/set mapping helpers.
func TestRelabelMapHelpers(t *testing.T) {
	g := relabelTestGraph(t)
	r := DegreeOrder(g)
	ids := []NodeID{0, 5, 9}
	back := r.MapToOld(r.MapToNew(ids))
	for i := range ids {
		if back[i] != ids[i] {
			t.Fatalf("MapToOld∘MapToNew(%d) = %d", ids[i], back[i])
		}
	}
	s := NewNodeSet("S", ids)
	ms := r.MapSetToNew(s)
	if ms.Name != "S" || ms.Len() != s.Len() {
		t.Fatalf("MapSetToNew changed name/size: %q %d", ms.Name, ms.Len())
	}
	for i, id := range ms.Nodes() {
		if r.ToOld(id) != ids[i] {
			t.Fatalf("set member %d maps back to %d, want %d", id, r.ToOld(id), ids[i])
		}
	}
}

// TestRelabeledCachesPerMode: the graph builds each reordering once (the
// cache lives on the graph, so it dies with it), concurrent first callers
// share one build, distinct modes get distinct entries, and NoRelabel is
// the identity.
func TestRelabeledCachesPerMode(t *testing.T) {
	g, _, err := GenerateCommunity(CommunityConfig{Sizes: []int{20, 20}, PIn: 0.2, POut: 0.05, Seed: 3, MinOutLink: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Graph, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = g.Relabeled(ByDegree)
		}()
	}
	wg.Wait()
	rg, r := g.Relabeled(ByDegree)
	if rg == g || r == nil {
		t.Fatal("ByDegree returned the graph as given")
	}
	for i, x := range got {
		if x != rg {
			t.Fatalf("caller %d got its own rebuild of the degree ordering", i)
		}
	}
	if bg, _ := g.Relabeled(ByBFS); bg == rg || bg == g {
		t.Fatal("distinct modes shared one cache entry")
	}
	if og, or := g.Relabeled(NoRelabel); og != g || or != nil {
		t.Fatal("NoRelabel must be the identity")
	}
}
