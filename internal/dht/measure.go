package dht

import (
	"fmt"

	"repro/internal/graph"
)

// Kind selects which step probability the general form folds (the paper's
// conclusion names Personalized PageRank as the intended extension of the
// join framework; the IDJ machinery only needs the Equation-4 shape).
type Kind int

const (
	// FirstHit folds first-hit probabilities P_i(u,v): the paper's DHT.
	FirstHit Kind = iota
	// Reach folds reach probabilities S_i(u,v) (the walk may revisit v):
	// with α = 1−c, β = 0, λ = c this is Personalized PageRank without its
	// i=0 self term.
	Reach
)

// String names the kind.
func (k Kind) String() string {
	if k == Reach {
		return "reach"
	}
	return "first-hit"
}

// PPR returns the Personalized-PageRank parameters for damping factor
// c ∈ (0,1): π_u(v) = Σ_{i≥1} (1−c)·c^i·S_i(u,v), i.e. α = 1−c, β = 0,
// λ = c, folded over reach probabilities (Kind Reach).
func PPR(c float64) Params {
	return Params{Alpha: 1 - c, Beta: 0, Lambda: c}
}

// ExactReachColumn solves the reach-measure analogue of ExactColumn:
// φ(u) = Σ_{i≥1} λ^i·S_i(u, v) satisfies (I − λP)·φ = λ·p_{·v} with no
// column dropped (the walk continues through v). out[u] = α·φ(u) + β.
func ExactReachColumn(g *graph.Graph, p Params, v graph.NodeID) ([]float64, error) {
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
	a := make([][]float64, n)
	rhs := make([]float64, n)
	for u := 0; u < n; u++ {
		a[u] = make([]float64, n)
		a[u][u] = 1
		to, _, tp := g.OutEdges(graph.NodeID(u))
		for j := range to {
			w := to[j]
			a[u][w] -= p.Lambda * tp[j]
			if w == v {
				rhs[u] += p.Lambda * tp[j]
			}
		}
	}
	phi, err := solveDense(a, rhs)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		out[u] = p.Alpha*phi[u] + p.Beta
	}
	return out, nil
}
