package plan

// This file is the whole cost model: one estimate per served executor, in
// the planner's edge-relaxation unit W = Workload.WalkCost() (one
// full-depth walk), following the paper's complexity analysis (§V–§VI).
//
// 2-way:
//
//   - B-BJ needs one full-depth backward walk per target: |Q|·W.
//   - B-IDJ-X/Y deepen over targets: shallow rounds ≈ |Q|·W/2, plus the
//     residual the bound failed to prune. The residual floor reflects bound
//     tightness (Lemma 5: Y⁺ₗ ≤ X⁺ₗ, so Y prunes earlier), and grows with
//     selectivity k/(|P|·|Q|) — at k = |P|·|Q| nothing can be pruned and the
//     deepening rounds are pure overhead, which is exactly when the planner
//     flips to B-BJ. B-IDJ-Y additionally pays its reach-probability
//     precomputation (one walk, Theorem 1).
//
// Every pair additionally costs pairCost of heap bookkeeping. The forward
// joiners (F-BJ, F-IDJ) are not served: this model prices their walks per
// pair where their backward twins' are per target (the factor-|P| win of
// backward processing, §V), so no request could ever pick one.
//
// n-way, composed per query edge from the 2-way estimates:
//
//   - AP materializes every pair of every edge with B-BJ, then rank-joins:
//     Σ_e |R_t|·W plus the bookkeeping over the answer space.
//   - PJ-i runs a top-m B-IDJ-Y per edge, plus a near-free bound refinement
//     per extra pull (§VI-D).
//
// NL and PJ are not served. NL re-walks every edge of every candidate
// tuple; it priced below AP and PJ-i only with a singleton set and walks of
// a few edge relaxations. PJ re-runs a from-scratch join per refetch that
// PJ-i's F structure replaces (§VI-D); it at best tied PJ-i.
//
// Every product that feeds a sum is rounded on its own (float64(…)), so no
// GOARCH may fuse it into a multiply-add and a plan is the same on every
// machine.

// pairCost is the modeled cost (in edge relaxations) of one candidate-pair
// heap insertion or score fold — a handful of comparisons and float ops,
// small next to an edge relaxation but not free: it is what separates the
// O(|P|·|Q|) bookkeeping floors of the algorithms once walk costs converge.
const pairCost = 4.0

// WalkCost estimates the edge relaxations of one full-depth (D-step)
// truncated walk by an analytic frontier-growth model: the frontier
// multiplies by the mean out-degree each step until it saturates at |E|
// relaxations per step (the dense-sweep ceiling the adaptive kernel switches
// to).
func (w Workload) WalkCost() float64 {
	delta := w.Stats.MeanOutDeg
	if delta < 1.05 {
		delta = 1.05 // sublinear growth still touches ≥ 1 edge per step
	}
	edges := float64(w.Stats.Arcs)
	if edges < 1 {
		edges = 1
	}
	cost, frontier := 0.0, delta
	for l := 0; l < w.D; l++ {
		cost += min(frontier, edges)
		frontier *= delta
	}
	return max(cost, 1)
}

// Selectivity is k over the candidate-space size, clamped to [0, 1]: the
// fraction of the space the query demands. Iterative deepening pays off when
// it is small (pruning discards most of the space before full-depth walks)
// and turns into pure overhead as it approaches 1.
func (w Workload) Selectivity() float64 {
	space := w.SpaceSize()
	if space <= 0 {
		return 1
	}
	rho := float64(w.K) / float64(space)
	if rho > 1 {
		return 1
	}
	if rho < 0 {
		return 0
	}
	return rho
}

// SpaceSize is the candidate-space size: |P|·|Q| for 2-way, Π|R_i| for
// n-way (saturating).
func (w Workload) SpaceSize() int {
	if len(w.SetSizes) == 0 {
		return w.P * w.Q
	}
	const maxInt = int(^uint(0) >> 1)
	total := 1
	for _, s := range w.SetSizes {
		if s > 0 && total > maxInt/s {
			return maxInt
		}
		total *= s
	}
	return total
}

// shallowRounds is the modeled cost of an iterative deepener's short-walk
// rounds, as a fraction of one full-depth walk per element: the doubling
// schedule walks lengths 1, 2, 4, …, d/2, whose truncated frontiers sum to
// roughly half the full walk under the adaptive sparse kernel.
const shallowRounds = 0.5

// Bound-tightness floors: the fraction of targets even a well-behaved run
// cannot prune before full depth. Y's per-target reach bounds (Theorem 1)
// are tighter than the graph-independent X (Lemma 2).
const (
	floorY = 0.15
	floorX = 0.35
)

// residual models the fraction of elements surviving to the full-depth
// round: a bound-tightness floor plus the demanded selectivity (pairs the
// query wants can never be pruned).
func residual(floor float64, w Workload) float64 {
	r := floor + w.Selectivity()
	if r > 1 {
		r = 1
	}
	return r
}

func costBBJ(w Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	return float64(float64(w.Q)*w.WalkCost()) + float64(pq*pairCost)
}

func costBIDJX(w Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	q, walk := float64(w.Q), w.WalkCost()
	return float64(q*walk*shallowRounds) + float64(residual(floorX, w)*q*walk) + float64(pq*pairCost)
}

func costBIDJY(w Workload) float64 {
	pq := float64(w.P) * float64(w.Q)
	q, walk := float64(w.Q), w.WalkCost()
	// The leading walk is the Y⁺ₗ table's reach-probability precomputation.
	return walk + float64(q*walk*shallowRounds) + float64(residual(floorY, w)*q*walk) + float64(pq*pairCost)
}

// edgeWorkload narrows an n-way workload to the 2-way join of one query
// edge: p sources, q targets, demand k.
func edgeWorkload(w Workload, p, q, k int) Workload {
	w.P, w.Q, w.K = p, q, k
	w.SetSizes, w.QueryEdges = nil, nil
	return w
}

// edgeSizes resolves one n-way query edge's (|R_from|, |R_to|).
func edgeSizes(w Workload, e [2]int) (int, int) {
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
func edgePulls(w Workload, space int) int {
	pulls := w.M + w.K
	if pulls > space {
		pulls = space
	}
	return pulls
}

func costAP(w Workload) float64 {
	var total float64
	for _, e := range w.QueryEdges {
		p, q := edgeSizes(w, e)
		total += costBBJ(edgeWorkload(w, p, q, p*q))
	}
	return total + float64(float64(w.SpaceSize())*pairCost)
}

// incrementalPull is the modeled cost of one PJ-i pull past the initial
// batch, as a fraction of a full-depth walk: the F structure refines only
// the pairs contending for the next rank (§VI-D).
const incrementalPull = 0.05

func costPJI(w Workload) float64 {
	var total float64
	for _, e := range w.QueryEdges {
		p, q := edgeSizes(w, e)
		space := p * q
		initial := w.M
		if initial > space {
			initial = space
		}
		total += costBIDJY(edgeWorkload(w, p, q, initial))
		if refetch := edgePulls(w, space) - initial; refetch > 0 {
			total += float64(float64(refetch) * incrementalPull * w.WalkCost())
		}
	}
	return total
}
