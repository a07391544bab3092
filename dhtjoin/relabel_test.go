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
