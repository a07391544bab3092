package measure

// This file registers the built-in measures. The walk kernels (dht, reach,
// ppr) evaluate through the internal/dht engines — the same code path the
// join executors run, so the registry's evaluator IS the serving semantics,
// not a parallel implementation. The simrank kernel wraps the fixed-point
// matrix with its iteration-gap bound.

import (
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/ppr"
	"repro/internal/simrank"
)

// walkEvaluator scores through a width-1 dht engine — one absorbing/plain
// forward walk per (src, target) pair at the requested depth.
type walkEvaluator struct {
	e    *dht.BatchEngine
	kind dht.Kind
	d    int
}

func (w *walkEvaluator) ScoresInto(src graph.NodeID, targets []graph.NodeID, l int, dst []float64) error {
	if len(dst) != len(targets) {
		return fmt.Errorf("measure: dst has length %d, want %d", len(dst), len(targets))
	}
	if l < 1 || l > w.d {
		return fmt.Errorf("measure: depth %d outside [1,%d]", l, w.d)
	}
	for i, t := range targets {
		dst[i] = w.e.ForwardScore(w.kind, src, t, l)
	}
	return nil
}

// newWalkEvaluator builds the engine-backed evaluator shared by the walk
// kernels.
func newWalkEvaluator(kind dht.Kind) func(g *graph.Graph, p dht.Params, d int) (Evaluator, error) {
	return func(g *graph.Graph, p dht.Params, d int) (Evaluator, error) {
		e, err := dht.NewBatchEngine(g, p, d, 1)
		if err != nil {
			return nil, err
		}
		return &walkEvaluator{e: e, kind: kind, d: d}, nil
	}
}

// pprEvaluator scores through the power-iteration column: one truncated
// series sweep per (src, l), gathered at the targets. It caches the last
// computed column, so the common access pattern — one source row at a time —
// pays one sweep per row.
type pprEvaluator struct {
	g       *graph.Graph
	c       float64
	d       int
	lastSrc graph.NodeID
	lastL   int
	col     []float64
}

func (e *pprEvaluator) ScoresInto(src graph.NodeID, targets []graph.NodeID, l int, dst []float64) error {
	if len(dst) != len(targets) {
		return fmt.Errorf("measure: dst has length %d, want %d", len(dst), len(targets))
	}
	if l < 1 || l > e.d {
		return fmt.Errorf("measure: depth %d outside [1,%d]", l, e.d)
	}
	if e.col == nil || src != e.lastSrc || l != e.lastL {
		col, err := ppr.PowerIteration(e.g, e.c, src, l)
		if err != nil {
			return err
		}
		e.col, e.lastSrc, e.lastL = col, src, l
	}
	for i, t := range targets {
		dst[i] = e.col[t]
	}
	return nil
}

// simrankEvaluator scores through the shared fixed-point matrix; depth is
// resolved at matrix construction (the default iteration count), so the
// per-call depth is ignored.
type simrankEvaluator struct {
	m *simrank.Matrix
}

func (e *simrankEvaluator) ScoresInto(src graph.NodeID, targets []graph.NodeID, _ int, dst []float64) error {
	if len(dst) != len(targets) {
		return fmt.Errorf("measure: dst has length %d, want %d", len(dst), len(targets))
	}
	for i, t := range targets {
		dst[i] = e.m.Score(src, t)
	}
	return nil
}

// simrankDefaultC and simrankDefaultIters mirror simrank.Options' resolved
// defaults; the iteration-gap bound C^(l+1) is stated in their terms.
const (
	simrankDefaultC     = 0.8
	simrankDefaultIters = 10
)

func init() {
	Register(Kernel{
		Name:         "dht",
		Contract:     Exact,
		WalkBased:    true,
		Walk:         dht.FirstHit,
		NewEvaluator: newWalkEvaluator(dht.FirstHit),
		Bound:        dht.Params.XBound,
		Doc:          "decayed hitting time (the paper's measure): first-hit walk fold, default DHTλ(0.2)",
	})
	Register(Kernel{
		Name:         "reach",
		Contract:     Exact,
		WalkBased:    true,
		Walk:         dht.Reach,
		NewEvaluator: newWalkEvaluator(dht.Reach),
		Bound:        dht.Params.XBound,
		Doc:          "reach-probability fold of the caller's params (the walk may revisit the target)",
	})
	Register(Kernel{
		Name:          "ppr",
		Contract:      Exact,
		WalkBased:     true,
		Walk:          dht.Reach,
		DefaultParams: func(dht.Params) dht.Params { return dht.PPR(0.5) },
		LambdaParams:  dht.PPR,
		NewEvaluator: func(g *graph.Graph, p dht.Params, d int) (Evaluator, error) {
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return &pprEvaluator{g: g, c: p.Lambda, d: d}, nil
		},
		Bound: dht.Params.XBound, // with PPR params, α·λ^(l+1)/(1−λ) = c^(l+1)
		Doc:   "personalized PageRank (no self term): reach fold of dht.PPR(c), default c=0.5",
	})
	Register(Kernel{
		Name:        "simrank",
		Contract:    CertifiedEps,
		PlanMeasure: "simrank",
		Eps: func(_ dht.Params, _ int) float64 {
			// Iteration-gap bound of the fixed point: |s_k(a,b) − s(a,b)| ≤
			// C^(k+1) (Jeh & Widom, Prop. 2) at the default iteration count.
			return math.Pow(simrankDefaultC, simrankDefaultIters+1)
		},
		NewEvaluator: func(g *graph.Graph, _ dht.Params, _ int) (Evaluator, error) {
			m, err := simrank.SharedMatrix(g)
			if err != nil {
				return nil, err
			}
			return &simrankEvaluator{m: m}, nil
		},
		Bound: func(_ dht.Params, l int) float64 {
			// Same iteration-gap series: the score mass iterations past l
			// can still add is at most C^(l+1), monotone decreasing.
			return math.Pow(simrankDefaultC, float64(l+1))
		},
		Doc: "SimRank fixed point (C=0.8, 10 iters, dense ≤4096 nodes); ε = C^(iters+1)",
	})
}
