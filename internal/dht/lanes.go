package dht

import (
	"fmt"

	"repro/internal/graph"
)

// laneWidth is the lane count the lane kernel (DESIGN.md, "The lane kernel")
// specialises: the DefaultBatchWidth cache-line block. The Go bodies handle
// it with fixed-size array pointers (no per-lane bounds checks), the assembly
// bodies as two YMM registers; both run all laneWidth lanes whatever the
// active width, because lanes at and beyond it hold +0 and x + (+0) is x.
// Width 1, a lone walk, has a scalar branch of its own in the Go bodies (no
// block slicing, no lane loop); every other W runs their variable-width
// loops.
const laneWidth = DefaultBatchWidth

// goBody is a primitive in Go, the reference on every GOARCH; asmBody is one
// in assembly for W = laneWidth: no bounds checks (relax has made them), rows
// as a pointer and a count (nil: nodes 0..count-1), and the node loop inside,
// so a dense sweep is one call.
type (
	goBody  func(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID)
	asmBody func(cur, next *float64, index *int64, nbr *graph.NodeID, p *float64, rows *graph.NodeID, count int)
)

var (
	// useAsm routes W = laneWidth calls to the assembly bodies. The GOARCH
	// that has bodies sets it once, at init, on a machine that can run them
	// (lanes_amd64.go); only tests assign it afterwards.
	useAsm bool
	// asmMissing names what keeps useAsm off, "" when nothing does.
	asmMissing = "this GOARCH has no assembly lane kernel"

	scatterAsm, gatherAsm asmBody
)

// scatter pushes one step of mass along side: for every source v of rows
// (nil: every node) whose block cur[v·w : v·w+w] is non-zero, in list order,
// next[nbr[j]] += cur[v]·p[j] over v's entries j in ascending order, lane by
// lane for the aw active lanes. Per lane that is one rounded multiply and one
// rounded add per edge — never a fused multiply-add — so every lane performs
// the width-1 dense walk's additions in its order under either body.
func scatter(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID) {
	relax(scatterGo, scatterAsm, cur, next, w, aw, side, rows)
}

// gather is the same step in pull form: next[u] = Σ_j p[j]·cur[nbr[j]] over
// u's entries j in ascending order, for every u of rows (nil: every node),
// and no write anywhere else. The sum starts from +0, so over one side it
// makes exactly the additions a scatter over the other side makes into
// next[u] (Graph.Validate pins the mirror), with x + (+0) no-ops for the zero
// blocks a scatter skips.
func gather(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID) {
	relax(gatherGo, gatherAsm, cur, next, w, aw, side, rows)
}

// relax makes the bounds checks the assembly bodies do not, before either
// body writes anything and in O(1 + |rows|), then runs one of them. Arguments
// that do not fit together panic (join2.guard reports that as the joiner's
// error), and assembly never sees an empty slice's address. That neighbour
// ids lie in [0, n) and Index ascends is graph.CSR's construction invariant,
// not checked here.
func relax(body goBody, asm asmBody, cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID) {
	n := max(len(side.Index)-1, 0)
	fits := 1 <= aw && aw <= w && len(cur) == n*w && len(next) == n*w && len(side.P) == len(side.Nbr) &&
		(n == 0 || side.Index[n] == int64(len(side.Nbr)))
	for _, v := range rows {
		fits = fits && 0 <= v && int(v) < n
	}
	if !fits {
		panic(fmt.Sprintf("dht: lane kernel over %d and %d masses, %d lanes (%d active), index of %d ending at %v for %d neighbours and %d probabilities, or one of %d rows outside it",
			len(cur), len(next), w, aw, len(side.Index), side.Index[n:], len(side.Nbr), len(side.P), len(rows)))
	}
	switch {
	case n == 0 || rows != nil && len(rows) == 0:
	case !useAsm || w != laneWidth || len(side.Nbr) == 0:
		body(cur, next, w, aw, side, rows)
	case rows == nil:
		asm(&cur[0], &next[0], &side.Index[0], &side.Nbr[0], &side.P[0], nil, n)
	default:
		asm(&cur[0], &next[0], &side.Index[0], &side.Nbr[0], &side.P[0], &rows[0], len(rows))
	}
}

// scatterGo is the reference body of scatter on every GOARCH.
func scatterGo(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID) {
	for i, count := 0, rowCount(side, rows); i < count; i++ {
		v := rowAt(rows, i)
		lo, hi := side.Index[v], side.Index[v+1]
		nbr, p := side.Nbr[lo:hi], side.P[lo:hi]
		if w == 1 {
			m := cur[v]
			if m == 0 {
				continue
			}
			for j, u := range nbr {
				next[u] += m * p[j]
			}
			continue
		}
		if w == laneWidth {
			mb := (*[laneWidth]float64)(cur[v*laneWidth:])
			if !anyNonZero(mb[:]) {
				continue
			}
			for j, u := range nbr {
				pj := p[j]
				nb := (*[laneWidth]float64)(next[int(u)*laneWidth:])
				nb[0] += mb[0] * pj
				nb[1] += mb[1] * pj
				nb[2] += mb[2] * pj
				nb[3] += mb[3] * pj
				nb[4] += mb[4] * pj
				nb[5] += mb[5] * pj
				nb[6] += mb[6] * pj
				nb[7] += mb[7] * pj
			}
			continue
		}
		mb := cur[v*w : v*w+aw]
		if !anyNonZero(mb) {
			continue
		}
		for j, u := range nbr {
			pj := p[j]
			nb := next[int(u)*w:][:len(mb)]
			for c, m := range mb {
				nb[c] += m * pj
			}
		}
	}
}

// gatherGo is the reference body of gather on every GOARCH.
func gatherGo(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID) {
	for i, count := 0, rowCount(side, rows); i < count; i++ {
		u := rowAt(rows, i)
		lo, hi := side.Index[u], side.Index[u+1]
		nbr, p := side.Nbr[lo:hi], side.P[lo:hi]
		if w == 1 {
			var s float64
			for j, v := range nbr {
				s += cur[v] * p[j]
			}
			next[u] = s
			continue
		}
		if w == laneWidth {
			var s [laneWidth]float64
			for j, v := range nbr {
				pj := p[j]
				mb := (*[laneWidth]float64)(cur[int(v)*laneWidth:])
				s[0] += mb[0] * pj
				s[1] += mb[1] * pj
				s[2] += mb[2] * pj
				s[3] += mb[3] * pj
				s[4] += mb[4] * pj
				s[5] += mb[5] * pj
				s[6] += mb[6] * pj
				s[7] += mb[7] * pj
			}
			*(*[laneWidth]float64)(next[u*laneWidth:]) = s
			continue
		}
		nb := next[u*w : u*w+aw]
		clear(nb)
		for j, v := range nbr {
			pj := p[j]
			mb := cur[int(v)*w:][:len(nb)]
			for c, m := range mb {
				nb[c] += m * pj
			}
		}
	}
}

// rowCount and rowAt read a row list in which nil stands for every node.
func rowCount(side graph.CSR, rows []graph.NodeID) int {
	if rows == nil {
		return len(side.Index) - 1
	}
	return len(rows)
}

func rowAt(rows []graph.NodeID, i int) int {
	if rows == nil {
		return i
	}
	return int(rows[i])
}

// anyNonZero reports whether the mass block carries mass in any lane.
func anyNonZero(b []float64) bool {
	for _, m := range b {
		if m != 0 {
			return true
		}
	}
	return false
}
