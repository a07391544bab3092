// Package ppr computes Personalized PageRank columns — the proximity
// measure the source paper's conclusion names as the intended extension of
// the join framework. PowerIteration is the truncated series
// π_d(s,v) = Σ_{i=1..d} (1−c)·c^i·S_i(s,v), exactly the value the dht walk
// engine computes under Kind Reach with dht.PPR(c) parameters (α = 1−c,
// β = 0, λ = c). The i = 0 self term is excluded, matching the DHT
// convention that a node's proximity to itself is not part of the measure.
//
// It shares the engine's dangling-node semantics: a walk that reaches a node
// with no out-edges dies there (its mass is lost), it is not teleported back
// to the source. This keeps ppr bit-compatible with the reach walks the join
// executors run, which is what the golden tests in this package pin.
package ppr

import (
	"fmt"

	"repro/internal/graph"
)

// validate checks PowerIteration's preconditions.
func validate(g *graph.Graph, c float64, src graph.NodeID) error {
	if g == nil {
		return fmt.Errorf("ppr: nil graph")
	}
	if !(c > 0 && c < 1) {
		return fmt.Errorf("ppr: damping factor must lie in (0,1), got %g", c)
	}
	if int(src) < 0 || int(src) >= g.NumNodes() {
		return fmt.Errorf("ppr: source %d out of range [0,%d)", src, g.NumNodes())
	}
	return nil
}

// PowerIteration returns the truncated PPR column from src:
//
//	out[v] = π_d(src, v) = Σ_{i=1..d} (1−c)·c^i·S_i(src, v),
//
// where S_i is the i-step reach probability of the graph's natural random
// walk. d must be ≥ 1. The result matches the dht Reach engine with
// dht.PPR(c) parameters up to floating-point summation order.
func PowerIteration(g *graph.Graph, c float64, src graph.NodeID, d int) ([]float64, error) {
	if err := validate(g, c, src); err != nil {
		return nil, err
	}
	if d < 1 {
		return nil, fmt.Errorf("ppr: depth must be >= 1, got %d", d)
	}
	n := g.NumNodes()
	out := make([]float64, n)
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[src] = 1
	pow := 1.0
	for i := 1; i <= d; i++ {
		pow *= c
		for i := range next {
			next[i] = 0
		}
		live := false
		for u := 0; u < n; u++ {
			m := cur[u]
			if m == 0 {
				continue
			}
			to, _, p := g.OutEdges(graph.NodeID(u))
			// A dangling node has no out-edges: its mass dies here, the
			// walk is not restarted (engine frontier semantics).
			for j := range to {
				next[to[j]] += m * p[j]
				live = true
			}
		}
		if !live {
			break // all mass lost in sinks; S_j = 0 from here on
		}
		w := (1 - c) * pow
		for v := range next {
			out[v] += w * next[v]
		}
		cur, next = next, cur
	}
	return out, nil
}
