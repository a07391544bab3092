package core

// This file registers the served n-way operators (AP, PJ-i, SR-AP) with the
// planner registry (internal/plan), making each a selectable executor behind
// the same descriptor shape as the 2-way joiners.
//
// NL and PJ stay constructible for the paper's reproduction
// (internal/experiments) but are not registered. NL re-walks every edge of
// every candidate tuple; it priced below AP and PJ-i only with a singleton
// set and walks of a few edge relaxations. PJ re-runs a from-scratch join
// per refetch that PJ-i's F structure replaces (§VI-D); it at best tied
// PJ-i.
//
// The cost model composes the registered 2-way estimates per query edge
// (looked up through the registry, so the two layers can never drift) in
// the planner's edge-relaxation unit W = Workload.WalkCost():
//
//   - AP materializes every pair of every edge with B-BJ, then rank-joins:
//     Σ_e |R_t|·W plus the bookkeeping over the answer space.
//   - PJ-i runs a top-m B-IDJ-Y per edge, plus a near-free bound refinement
//     per extra pull (§VI-D).

import (
	"fmt"

	"repro/internal/plan"
)

// StreamAlgorithm is an n-way operator that exposes its incremental pull
// stream alongside the batch Run — every n-way operator implements it.
type StreamAlgorithm interface {
	Algorithm
	Stream() (TupleStream, error)
}

// Factory is the n-way executor constructor signature registered as
// plan.Descriptor.New: spec plus the per-edge budget m (ignored by AP,
// which has no notion of a partial batch).
type Factory func(spec Spec, m int) (StreamAlgorithm, error)

// twoWayEdgeCost prices one query edge's 2-way join with the named
// registered 2-way executor at demand k, reusing the join2 cost functions
// through the registry.
func twoWayEdgeCost(name string, w plan.Workload, p, q, k int) float64 {
	ew := w
	ew.P, ew.Q, ew.K = p, q, k
	ew.SetSizes, ew.QueryEdges = nil, nil
	if d, ok := plan.Lookup(name); ok {
		return d.Cost(ew)
	}
	// Unreachable while join2 registers its executors; priced as all-pairs
	// forward so a broken registry still yields a finite, pessimistic plan.
	return float64(p) * float64(q) * ew.WalkCost()
}

// edgeSizes resolves one n-way query edge's (|R_from|, |R_to|).
func edgeSizes(w plan.Workload, e [2]int) (int, int) {
	p, q := 1, 1
	if e[0] >= 0 && e[0] < len(w.SetSizes) {
		p = w.SetSizes[e[0]]
	}
	if e[1] >= 0 && e[1] < len(w.SetSizes) {
		q = w.SetSizes[e[1]]
	}
	return p, q
}

// edgePulls estimates how many pairs one edge source must yield before the
// rank join can emit k answers: the initial batch plus roughly one refetch
// per demanded answer (HRJN's round-robin pulls once per edge per
// threshold advance), capped at the edge's pair space.
func edgePulls(w plan.Workload, space int) int {
	pulls := w.M + w.K
	if pulls > space {
		pulls = space
	}
	return pulls
}

func costAP(w plan.Workload) float64 {
	var total float64
	for _, e := range w.QueryEdges {
		p, q := edgeSizes(w, e)
		total += twoWayEdgeCost("B-BJ", w, p, q, p*q)
	}
	return total + float64(w.SpaceSize())*plan.PairCost
}

// incrementalPull is the modeled cost of one PJ-i pull past the initial
// batch, as a fraction of a full-depth walk: the F structure refines only
// the pairs contending for the next rank (§VI-D).
const incrementalPull = 0.05

func costPJI(w plan.Workload) float64 {
	var total float64
	for _, e := range w.QueryEdges {
		p, q := edgeSizes(w, e)
		space := p * q
		initial := w.M
		if initial > space {
			initial = space
		}
		total += twoWayEdgeCost("B-IDJ-Y", w, p, q, initial)
		if refetch := edgePulls(w, space) - initial; refetch > 0 {
			total += float64(refetch) * incrementalPull * w.WalkCost()
		}
	}
	return total
}

// costSRAP prices the SimRank n-way join: one SR-SCAN materialization per
// query edge (the matrix compute amortizes across edges through the
// per-graph cache, but the planner prices the cold case) plus the rank-join
// bookkeeping over the answer space.
func costSRAP(w plan.Workload) float64 {
	var total float64
	for _, e := range w.QueryEdges {
		p, q := edgeSizes(w, e)
		total += twoWayEdgeCost("SR-SCAN", w, p, q, p*q)
	}
	return total + float64(w.SpaceSize())*plan.PairCost
}

func init() {
	reg := func(name string, streaming, resumable bool, cost plan.CostFunc, mk Factory) {
		plan.Register(plan.Descriptor{
			Name: name, Class: plan.NWay,
			Streaming: streaming, Resumable: resumable,
			Cost: cost, New: mk,
		})
	}
	// Served AP joins its edges backward; NewAP keeps the paper's F-BJ.
	reg("AP", false, false, costAP,
		func(spec Spec, _ int) (StreamAlgorithm, error) { return NewAPWith(spec, TwoWayBBJ) })
	reg("PJ-i", true, true, costPJI,
		func(spec Spec, m int) (StreamAlgorithm, error) { return NewPJI(spec, m) })
	// SR-AP is the SimRank n-way operator: AP's materialize-and-rank-join
	// drive with SR-SCAN per-edge sources. Registered under Measure
	// "simrank", so only measure-declaring workloads see it.
	plan.Register(plan.Descriptor{
		Name: "SR-AP", Class: plan.NWay, Measure: "simrank",
		Cost: costSRAP,
		New: Factory(func(spec Spec, _ int) (StreamAlgorithm, error) {
			return NewAPWith(spec, TwoWaySimRank)
		}),
	})
}

// NewNamed constructs the named registered n-way operator over spec with
// per-edge budget m — the planner-facing generalization of the hard-coded
// NewPJI call the execution layers used to make.
func NewNamed(name string, spec Spec, m int) (StreamAlgorithm, error) {
	d, ok := plan.Lookup(name)
	if !ok || d.Class != plan.NWay {
		return nil, fmt.Errorf("core: no registered n-way executor %q", name)
	}
	mk, ok := d.New.(Factory)
	if !ok {
		return nil, fmt.Errorf("core: executor %q registered with a foreign factory type", name)
	}
	return mk(spec, m)
}
