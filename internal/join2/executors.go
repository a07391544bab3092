package join2

// This file registers the five 2-way joiners with the planner registry
// (internal/plan): each gets a descriptor carrying its name, streaming and
// resumability capabilities, an analytic cost function, and a Factory. The
// execution layers (dhtjoin, internal/service) no longer hard-code B-IDJ-Y —
// they ask plan.Decide and open whatever wins through NewNamedStream.
//
// The cost model follows the paper's complexity analysis (§V–§VI) in the
// planner's edge-relaxation unit W = Workload.WalkCost() (one full-depth
// walk):
//
//   - F-BJ scores every pair with its own absorbing forward walk:
//     |P|·|Q|·W.
//   - F-IDJ deepens over sources: the doubling schedule's shallow rounds
//     cost about half a full walk per pair, then the un-pruned residual pays
//     full depth.
//   - B-BJ needs one full-depth backward walk per target — the factor-|P|
//     win of backward processing: |Q|·W.
//   - B-IDJ-X/Y deepen over targets: shallow rounds ≈ |Q|·W/2, plus the
//     residual the bound failed to prune. The residual floor reflects bound
//     tightness (Lemma 5: Y⁺ₗ ≤ X⁺ₗ, so Y prunes earlier), and grows with
//     selectivity k/(|P|·|Q|) — at k = |P|·|Q| nothing can be pruned and the
//     deepening rounds are pure overhead, which is exactly when the planner
//     flips to B-BJ. B-IDJ-Y additionally pays its reach-probability
//     precomputation (one walk, Theorem 1).
//
// Every pair additionally costs plan.PairCost of heap bookkeeping. All five
// produce bit-identical rankings (canonical tie keys), so a wrong estimate
// costs time, never correctness.

import (
	"fmt"

	"repro/internal/plan"
)

// Factory is the 2-way executor constructor signature registered as
// plan.Descriptor.New; the execution layer asserts it back.
type Factory func(cfg Config) (Joiner, error)

// shallowRounds is the modeled cost of an iterative deepener's short-walk
// rounds, as a fraction of one full-depth walk per element: the doubling
// schedule walks lengths 1, 2, 4, …, d/2, whose truncated frontiers sum to
// roughly half the full walk under the adaptive sparse kernel.
const shallowRounds = 0.5

// residual models the fraction of elements surviving to the full-depth
// round: a bound-tightness floor plus the demanded selectivity (pairs the
// query wants can never be pruned).
func residual(floor float64, w plan.Workload) float64 {
	r := floor + w.Selectivity()
	if r > 1 {
		r = 1
	}
	return r
}

// Bound-tightness floors: the fraction of targets even a well-behaved run
// cannot prune before full depth. Y's per-target reach bounds (Theorem 1)
// are tighter than the graph-independent X (Lemma 2).
const (
	floorY = 0.15
	floorX = 0.35
)

func costFBJ(w plan.Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	return pq*w.WalkCost() + pq*plan.PairCost
}

func costFIDJ(w plan.Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	walk := w.WalkCost()
	return pq*walk*shallowRounds + residual(floorX, w)*pq*walk + pq*plan.PairCost
}

func costBBJ(w plan.Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	return float64(w.Q)*w.WalkCost() + pq*plan.PairCost
}

func costBIDJX(w plan.Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	q, walk := float64(w.Q), w.WalkCost()
	return q*walk*shallowRounds + residual(floorX, w)*q*walk + pq*plan.PairCost
}

func costBIDJY(w plan.Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	q, walk := float64(w.Q), w.WalkCost()
	// The leading walk is the Y⁺ₗ table's reach-probability precomputation.
	return walk + q*walk*shallowRounds + residual(floorY, w)*q*walk + pq*plan.PairCost
}

// bidjVariant maps the registered B-IDJ names to their bound variant, for
// NewNamedStream's incremental upgrade.
var bidjVariant = map[string]BoundVariant{
	"B-IDJ-X": BoundX,
	"B-IDJ-Y": BoundY,
}

func init() {
	reg := func(name string, streaming, resumable bool, cost plan.CostFunc, mk Factory) {
		plan.Register(plan.Descriptor{
			Name: name, Class: plan.TwoWay,
			Streaming: streaming, Resumable: resumable,
			Cost: cost, New: mk,
		})
	}
	// The B-IDJ family streams natively (pairs confirm as the bound
	// deepens) and resumes through the incremental F structure of §VI-D.
	reg("B-IDJ-Y", true, true, costBIDJY, func(cfg Config) (Joiner, error) { return NewBIDJY(cfg) })
	reg("B-IDJ-X", true, true, costBIDJX, func(cfg Config) (Joiner, error) { return NewBIDJX(cfg) })
	// The basic joins materialize their top-k in one pass; streaming past
	// it re-joins with a grown budget.
	reg("B-BJ", false, false, costBBJ, func(cfg Config) (Joiner, error) { return NewBBJ(cfg) })
	reg("F-BJ", false, false, costFBJ, func(cfg Config) (Joiner, error) { return NewFBJ(cfg) })
	reg("F-IDJ", false, false, costFIDJ, func(cfg Config) (Joiner, error) { return NewFIDJ(cfg) })
}

// NewNamedStream opens the serving stream of the named registered 2-way
// executor over cfg — the one strategy choice in the system. The B-IDJ
// family streams through the incremental F structure when the
// config is serial and the caller is not a batch drain (batch = true: the
// caller will pull exactly the initial budget and stop, so populating the F
// structure would be paid for nothing); everything else — non-B-IDJ
// executors, parallel configs, batch drains — runs the underlying joiner
// behind a doubling re-join, which prices a batch drain identically to a
// direct TopK call. Every choice yields the identical ranking (canonical
// tie keys); the strategy split is purely a cost decision.
func NewNamedStream(name string, cfg Config, spec StreamSpec, batch bool) (Stream, error) {
	d, ok := plan.Lookup(name)
	if !ok || d.Class != plan.TwoWay {
		return nil, fmt.Errorf("join2: no registered 2-way executor %q", name)
	}
	if v, incr := bidjVariant[name]; incr && !batch && cfg.Workers >= 0 && cfg.Workers <= 1 {
		return NewIncrementalStream(cfg, v, spec)
	}
	mk, ok := d.New.(Factory)
	if !ok {
		return nil, fmt.Errorf("join2: executor %q registered with a foreign factory type", name)
	}
	j, err := mk(cfg)
	if err != nil {
		return nil, err
	}
	if spec.Grow == nil {
		spec.Grow = growDouble
	}
	return NewRejoinStream(j, spec)
}
