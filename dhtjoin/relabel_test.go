package dhtjoin

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// relabelTestGraph builds a labeled community graph with two join sets.
func relabelTestGraph(t *testing.T) (*Graph, *NodeSet, *NodeSet) {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{20, 20, 15}, PIn: 0.2, POut: 0.06, Seed: 21, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, sets[0], sets[1]
}

// TestOptionsRelabelRoundTripsPairs: TopKPairs with every relabel mode must
// return ids in the caller's space with the original ranking (scores to
// fp-reordering tolerance).
func TestOptionsRelabelRoundTripsPairs(t *testing.T) {
	g, p, q := relabelTestGraph(t)
	want, err := TopKPairs(g, p, q, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []RelabelMode{RelabelOff, RelabelDegree, RelabelBFS} {
		got, err := TopKPairs(g, p, q, 12, &Options{Relabel: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(got) != len(want) {
			t.Fatalf("mode %v: %d results, want %d", mode, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("mode %v rank %d: score %v, want %v", mode, i, got[i].Score, want[i].Score)
			}
			if !p.Contains(got[i].Pair.P) || !q.Contains(got[i].Pair.Q) {
				t.Fatalf("mode %v rank %d: pair %v not in the original id space", mode, i, got[i].Pair)
			}
		}
	}
}

// TestOptionsRelabelRoundTripsNWay: the n-way TopK must map every answer
// tuple back to the caller's id space under relabeling.
func TestOptionsRelabelRoundTripsNWay(t *testing.T) {
	g, p, q := relabelTestGraph(t)
	query := Chain(p, q)
	want, err := TopK(g, query, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []RelabelMode{RelabelDegree, RelabelBFS} {
		got, err := TopK(g, query, 8, &Options{Relabel: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if len(got) != len(want) {
			t.Fatalf("mode %v: %d answers, want %d", mode, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("mode %v rank %d: score %v, want %v", mode, i, got[i].Score, want[i].Score)
			}
			if !p.Contains(got[i].Nodes[0]) || !q.Contains(got[i].Nodes[1]) {
				t.Fatalf("mode %v rank %d: answer %v not in the original id space", mode, i, got[i].Nodes)
			}
		}
	}
}

// TestRelabelCacheInsertRaceRefreshesRecency is the regression test for the
// race-recheck eviction bug: when insert finds the key already published
// (another goroutine won the rebuild race), it must refresh the key's LRU
// recency exactly as a lookup hit would. Before the fix the raced key kept
// its stale position, so a concurrently-hot graph could be evicted as
// "oldest" by the next few inserts.
func TestRelabelCacheInsertRaceRefreshesRecency(t *testing.T) {
	c := newRelabelLRU(3)
	mk := func(seed int64) relabelKey {
		g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
			Sizes: []int{4, 4}, PIn: 0.5, POut: 0.5, Seed: seed, MinOutLink: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return relabelKey{g, RelabelDegree}
	}
	hot, cold1, cold2 := mk(1), mk(2), mk(3)
	rlHot := &relabeled{hot.g, nil}
	if got := c.insert(hot, rlHot); got != rlHot {
		t.Fatal("first insert did not publish its entry")
	}
	c.insert(cold1, &relabeled{cold1.g, nil})
	c.insert(cold2, &relabeled{cold2.g, nil})
	// Simulate the race-lose path: a second goroutine rebuilt hot's graph and
	// calls insert while the entry is already published. It must be handed
	// the published entry and hot must become most recently used.
	if got := c.insert(hot, &relabeled{hot.g, nil}); got != rlHot {
		t.Fatal("raced insert did not share the published entry")
	}
	// Two fresh inserts now evict the two cold keys; hot must survive.
	c.insert(mk(4), &relabeled{nil, nil})
	c.insert(mk(5), &relabeled{nil, nil})
	if _, ok := c.lookup(hot); !ok {
		t.Fatal("hot key was evicted: raced insert did not refresh LRU recency")
	}
	if _, ok := c.lookup(cold1); ok {
		t.Fatal("cold key survived past capacity")
	}
}

// TestRelabelCacheReuses: two joins on the same graph and mode must reuse
// one relabeled graph (the cache key is the graph pointer).
func TestRelabelCacheReuses(t *testing.T) {
	g, _, _ := relabelTestGraph(t)
	rg1, r1 := relabeledFor(g, RelabelDegree)
	rg2, r2 := relabeledFor(g, RelabelDegree)
	if rg1 != rg2 || r1 != r2 {
		t.Fatal("relabel cache rebuilt the graph for the same (graph, mode)")
	}
	rg3, _ := relabeledFor(g, RelabelBFS)
	if rg3 == rg1 {
		t.Fatal("distinct modes shared one cache entry")
	}
	if og, or := relabeledFor(g, RelabelOff); og != g || or != nil {
		t.Fatal("RelabelOff must be the identity")
	}
}
