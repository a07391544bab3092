package dht

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// YBoundTable precomputes Y⁺ₗ(P, q) of Theorem 1 for every candidate target
// q ∈ Q and every cut step l ∈ [0, d]:
//
//	Y⁺ₗ(P, q) = α · Σ_{i=l+1..d} λ^i · min( Σ_{p∈P} S_i(p, q), 1 )
//
// where S_i(p, q) is the probability a walk from p reaches q (not necessarily
// for the first time) at step i. Building the table is one unabsorbed d-step
// walk from all of P simultaneously — O(d·|E|) — after which Bound is O(1).
type YBoundTable struct {
	g      *graph.Graph
	params Params
	d      int
	p, q   []graph.NodeID // the lists the table was built for, not copied
	y      [][]float64    // y[qi][l], l in [0,d]
	index  map[graph.NodeID]int
}

// NewYBoundTables computes the table of every (ps[c], qs[c]) pair as the
// lanes of forward walks on be, W pairs per walk: lane c starts with unit
// mass on every node of ps[c] and is read at qs[c], and counts one walk. On
// a width-1 engine (a lone table) each walk is read at its Q only, so its
// last two steps, when they would be dense sweeps, gather at Q and at
// Q ∪ in-neighbours(Q) instead (the forward mirror of BackWalkRowsBatch's
// tail); a wider engine's walks stay unrestricted, the trailing one-lane
// walk of a table set included. Every entry is == the one an unrestricted
// width-1 walk gives. len(ps) must equal len(qs).
func NewYBoundTables(be *BatchEngine, ps, qs [][]graph.NodeID) []*YBoundTable {
	ts := make([]*YBoundTable, len(ps))
	for base := 0; base < len(ps); base += be.W {
		end := min(base+be.W, len(ps))
		var rs *ReadSet
		if be.W == 1 {
			rs = newReadSet(be.G, qs[base], false)
		}
		for c, reach := range be.reachProbsBatch(ps[base:end], qs[base:end], be.D, rs) {
			ts[base+c] = newYBoundTable(be.G, be.Params, ps[base+c], qs[base+c], reach)
		}
	}
	return ts
}

// newYBoundTable folds reach[i-1][qi] = Σ_p S_i(p, q[qi]), i = 1..d, into the
// table.
func newYBoundTable(g *graph.Graph, params Params, p, q []graph.NodeID, reach [][]float64) *YBoundTable {
	d := len(reach)
	t := &YBoundTable{
		g:      g,
		params: params,
		d:      d,
		p:      p,
		q:      q,
		y:      make([][]float64, len(q)),
		index:  make(map[graph.NodeID]int, len(q)),
	}
	for qi, node := range q {
		t.index[node] = qi
		row := make([]float64, d+1)
		// Suffix accumulation: row[l] = α Σ_{i>l} λ^i min(mass_i, 1).
		var suffix float64
		pow := math.Pow(params.Lambda, float64(d))
		for i := d; i >= 1; i-- {
			suffix += pow * math.Min(reach[i-1][qi], 1)
			pow /= params.Lambda
			row[i-1] = params.Alpha * suffix
		}
		// row[d] = 0: after d steps nothing can be added to h_d.
		t.y[qi] = row
	}
	return t
}

// Bound returns Y⁺ₗ(P, q). It panics if q was not in the target set or l is
// outside [0, d] — both indicate caller bugs.
func (t *YBoundTable) Bound(q graph.NodeID, l int) float64 {
	qi, ok := t.index[q]
	if !ok {
		panic("dht: YBoundTable.Bound called for a target outside the table")
	}
	if l < 0 || l > t.d {
		panic("dht: YBoundTable.Bound cut step out of range")
	}
	return t.y[qi][l]
}

// BuiltFor reports whether the table was built on g under params to depth d
// for exactly the lists p and q — same length, same ids, same order. A table
// built for anything else would prune with another join's bounds.
func (t *YBoundTable) BuiltFor(g *graph.Graph, params Params, d int, p, q []graph.NodeID) bool {
	return t.g == g && t.params == params && t.d == d && slices.Equal(t.p, p) && slices.Equal(t.q, q)
}
