package dht

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// ExactScore computes the untruncated h(u, v) by solving the absorbing-chain
// linear system with dense Gaussian elimination. Writing
// φ(u) = Σ_{i≥1} λ^i P_i(u,v), first-step analysis gives, for u ≠ v,
//
//	φ(u) = λ · Σ_{(u,w)∈E} p_uw · ( w = v ? 1 : φ(w) )
//
// i.e. (I − λ·P_{−v}) φ = λ·p_{·v}, where P_{−v} zeroes the column of v.
// Then h(u,v) = α·φ(u) + β. Cost O(n³): ground truth for small test graphs
// only.
func ExactScore(g *graph.Graph, p Params, u, v graph.NodeID) (float64, error) {
	phi, err := ExactColumn(g, p, v)
	if err != nil {
		return 0, err
	}
	return phi[u], nil
}

// ExactColumn returns h(u, v) for every u at once (the exact analogue of a
// backward walk): out[u] = α·φ(u) + β, out[v] = 0.
func ExactColumn(g *graph.Graph, p Params, v graph.NodeID) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("dht: exact solve on empty graph")
	}
	if n > 4096 {
		return nil, fmt.Errorf("dht: exact solve limited to 4096 nodes, got %d (use BackWalkScoresBatch)", n)
	}
	// Build A = I − λ·P with the v column dropped, rhs = λ·p_{·v}.
	a := make([][]float64, n)
	rhs := make([]float64, n)
	for u := 0; u < n; u++ {
		a[u] = make([]float64, n)
		a[u][u] = 1
		if graph.NodeID(u) == v {
			continue // φ(v) is not defined by the recurrence; pin it to 0
		}
		to, _, tp := g.OutEdges(graph.NodeID(u))
		for j := range to {
			w := to[j]
			if w == v {
				rhs[u] += p.Lambda * tp[j]
			} else {
				a[u][w] -= p.Lambda * tp[j]
			}
		}
	}
	phi, err := solveDense(a, rhs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		if graph.NodeID(u) == v {
			out[u] = 0
			continue
		}
		out[u] = p.Alpha*phi[u] + p.Beta
	}
	return out, nil
}

// solveDense solves a·x = b with partial-pivoting Gaussian elimination,
// destroying a and b.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-14 {
			return nil, fmt.Errorf("dht: singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			a[r][col] = 0
			for c := col + 1; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}
