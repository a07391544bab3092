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

// ForwardScoreKind computes the truncated score under the given kind with a
// forward walk: FirstHit uses the absorbing walk, Reach the plain one.
func (e *Engine) ForwardScoreKind(kind Kind, p, q graph.NodeID, steps int) float64 {
	if kind == FirstHit {
		return e.ForwardScoreAt(p, q, steps)
	}
	return e.Params.Score(e.forwardReachProbs(p, q, e.probsScratch(steps)))
}

// forwardReachProbs advances an unabsorbed walk from p through the adaptive
// kernel, recording the mass at q after each step: probs[i-1] = S_i(p, q).
func (e *Engine) forwardReachProbs(p, q graph.NodeID, probs []float64) []float64 {
	sweeps0, frontier0 := e.beginWalk()
	clearVec(probs)
	e.seed(p)
	for i := range probs {
		if e.frontierEmpty() {
			break // mass all lost in sinks; S_j = 0 from here
		}
		e.push(false, hopSet{})
		probs[i] = e.next[q]
		e.commit(i == len(probs)-1)
	}
	e.endWalk(sweeps0, frontier0)
	return probs
}

// BackWalkKind computes out[u] = truncated score from u to q for every node
// u, under the given kind: one backward step per walk length, shared by all
// sources — the backward-processing primitive generalized beyond first-hit.
func (e *Engine) BackWalkKind(kind Kind, q graph.NodeID, steps int, out []float64) {
	if kind == FirstHit {
		e.BackWalk(q, steps, out)
		return
	}
	if len(out) != e.G.NumNodes() {
		panic(fmt.Sprintf("dht: BackWalkKind out has length %d, want %d", len(out), e.G.NumNodes()))
	}
	sweeps0, frontier0 := e.beginWalk()
	clearVec(out)
	e.seed(q)
	pow := 1.0
	for i := 1; i <= steps; i++ {
		if e.frontierEmpty() {
			break // mass all lost in sinks; S_j = 0 from here
		}
		pow *= e.Params.Lambda
		e.push(true, hopSet{})
		// next[u] = S_i(u, q); no re-absorption: the walk may pass q.
		next := e.next
		if e.lastDense {
			for u := range next {
				out[u] += pow * next[u]
			}
		} else {
			for _, u := range e.nextF {
				out[u] += pow * next[u]
			}
		}
		e.commit(i == steps)
	}
	a, b := e.Params.Alpha, e.Params.Beta
	for u := range out {
		out[u] = a*out[u] + b
	}
	e.endWalk(sweeps0, frontier0)
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
		return nil, fmt.Errorf("dht: exact solve limited to 4096 nodes, got %d (use BackWalkKind)", n)
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
