// Package graph provides the directed, weighted graph substrate used by the
// discounted-hitting-time join algorithms: a compact CSR (compressed sparse
// row) representation with both out- and in-adjacency, per-edge random-walk
// transition probabilities, node labels, named node sets, text
// serialization, and synthetic generators that stand in for the paper's real
// datasets (DBLP, Yeast, YouTube).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// NodeID identifies a node. Nodes are dense integers in [0, NumNodes).
type NodeID = int32

// Graph is an immutable directed weighted graph in CSR form. Build one with a
// Builder. For undirected inputs the Builder inserts both arcs, so Graph is
// always directional internally; random walks follow out-edges.
//
// The zero value is an empty graph with no nodes.
type Graph struct {
	n int

	// Out-adjacency (CSR): edges of node u are outTo[outIndex[u]:outIndex[u+1]].
	outIndex []int64
	outTo    []NodeID
	outW     []float64
	outP     []float64 // transition probabilities p_uv = w_uv / sum_w(u)

	// In-adjacency, used by algorithms that walk edges in reverse and by
	// degree statistics. inP[j] is the transition probability of the
	// corresponding forward edge (from inFrom[j] to the owning node).
	inIndex []int64
	inFrom  []NodeID
	inW     []float64
	inP     []float64

	labels []string // optional node labels; nil when unlabeled

	// Cached structural summary (Stats method). Graphs are immutable after
	// Build, so the O(|V|+|E|) scan runs at most once per graph; the query
	// planner consults it per query.
	statsOnce sync.Once
	stats     Stats
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed arcs stored.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// OutDegree returns the number of out-edges of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outIndex[u+1] - g.outIndex[u])
}

// InDegree returns the number of in-edges of u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inIndex[u+1] - g.inIndex[u])
}

// OutEdges returns the out-neighbor ids, edge weights, and transition
// probabilities of u. The returned slices alias internal storage and must not
// be modified.
func (g *Graph) OutEdges(u NodeID) (to []NodeID, w, p []float64) {
	lo, hi := g.outIndex[u], g.outIndex[u+1]
	return g.outTo[lo:hi], g.outW[lo:hi], g.outP[lo:hi]
}

// InEdges returns the in-neighbor ids, weights, and the forward transition
// probabilities of the corresponding arcs (p_{from,u}). The returned slices
// alias internal storage and must not be modified.
func (g *Graph) InEdges(u NodeID) (from []NodeID, w, p []float64) {
	lo, hi := g.inIndex[u], g.inIndex[u+1]
	return g.inFrom[lo:hi], g.inW[lo:hi], g.inP[lo:hi]
}

// CSR is one adjacency side of a Graph as raw arrays: node v's neighbours are
// Nbr[Index[v]:Index[v+1]], and P[j] is the transition probability of the arc
// entry j stands for. Kernels that index it without bounds checks (the lane
// kernel of internal/dht) rely on what every constructor of a Graph —
// Builder.Build, NewFromCSR, ApplyEdits — establishes and nothing
// changes afterwards: len(Index) == NumNodes+1, Index ascending from 0 to
// len(Nbr) == len(P), every neighbour id in [0, NumNodes), each list strictly
// ascending. The slices alias internal storage and must not be modified.
type CSR struct {
	Index []int64
	Nbr   []NodeID
	P     []float64
}

// Out returns the out-adjacency side: the arcs a forward walk follows.
func (g *Graph) Out() CSR { return CSR{g.outIndex, g.outTo, g.outP} }

// In returns the in-adjacency side: the arcs a backward walk follows.
func (g *Graph) In() CSR { return CSR{g.inIndex, g.inFrom, g.inP} }

// HasEdge reports whether the arc (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	to, _, _ := g.OutEdges(u)
	// Out-edges are sorted by target; binary search.
	lo, hi := 0, len(to)
	for lo < hi {
		mid := (lo + hi) / 2
		if to[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(to) && to[lo] == v
}

// EdgeWeight returns the weight of arc (u, v) and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	to, w, _ := g.OutEdges(u)
	lo, hi := 0, len(to)
	for lo < hi {
		mid := (lo + hi) / 2
		if to[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(to) && to[lo] == v {
		return w[lo], true
	}
	return 0, false
}

// Label returns the label of u, or the empty string if the graph is unlabeled.
func (g *Graph) Label(u NodeID) string {
	if g.labels == nil {
		return ""
	}
	return g.labels[u]
}

// Labeled reports whether node labels are present.
func (g *Graph) Labeled() bool { return g.labels != nil }

// Validate checks structural invariants: CSR monotonicity, target bounds,
// weight positivity and finiteness, that every non-sink transition row sums
// to 1 within tolerance, and that the in-adjacency is the exact mirror of
// the out-adjacency — every in-list strictly ascending by source, inP
// bit-equal to the forward arc's outP. The walk kernels rest on that mirror:
// a step pushed along one side and the same step gathered along the other
// (dht's gathered tails: backward walks gather along out-edges, the Y⁺ table's
// forward walk along in-edges) must make the same additions in the same
// order. It is used by tests and by graph loading.
func (g *Graph) Validate() error {
	if len(g.outIndex) != g.n+1 || len(g.inIndex) != g.n+1 {
		return fmt.Errorf("graph: index arrays have wrong length (n=%d)", g.n)
	}
	if g.outIndex[0] != 0 || g.inIndex[0] != 0 {
		return errors.New("graph: CSR indexes must start at 0")
	}
	for u := 0; u < g.n; u++ {
		if g.outIndex[u+1] < g.outIndex[u] {
			return fmt.Errorf("graph: out index not monotone at node %d", u)
		}
		if g.inIndex[u+1] < g.inIndex[u] {
			return fmt.Errorf("graph: in index not monotone at node %d", u)
		}
		var sum float64
		to, w, p := g.OutEdges(NodeID(u))
		for j := range to {
			if to[j] < 0 || int(to[j]) >= g.n {
				return fmt.Errorf("graph: edge (%d,%d) target out of range", u, to[j])
			}
			if j > 0 && to[j] <= to[j-1] {
				return fmt.Errorf("graph: out edges of %d not strictly sorted", u)
			}
			if w[j] <= 0 || math.IsNaN(w[j]) || math.IsInf(w[j], 0) {
				return fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, to[j], w[j])
			}
			sum += p[j]
		}
		if len(to) > 0 && math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("graph: transition row of %d sums to %g, want 1", u, sum)
		}
	}
	// One cursor per in-list: walking the out-CSR in order must meet every
	// in-list's entries one after another. Sources then ascend strictly,
	// since u only grows and contributes at most one arc per target.
	if len(g.inFrom) != len(g.outTo) || g.inIndex[g.n] != int64(len(g.outTo)) {
		return fmt.Errorf("graph: %d in-arcs for %d out-arcs", len(g.inFrom), len(g.outTo))
	}
	cursor := append([]int64(nil), g.inIndex[:g.n]...)
	for u := 0; u < g.n; u++ {
		for j := g.outIndex[u]; j < g.outIndex[u+1]; j++ {
			v := g.outTo[j]
			i := cursor[v]
			if i >= g.inIndex[v+1] || g.inFrom[i] != NodeID(u) || g.inW[i] != g.outW[j] ||
				math.Float64bits(g.inP[i]) != math.Float64bits(g.outP[j]) {
				return fmt.Errorf("graph: in-list of %d does not mirror arc (%d,%d)", v, u, v)
			}
			cursor[v] = i + 1
		}
	}
	return nil
}

// TotalWeight returns the sum of all arc weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, w := range g.outW {
		s += w
	}
	return s
}
