package dht

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// DefaultDenseThreshold is the sparse→dense switch point of the adaptive
// walk kernel: a step runs as a sparse frontier push while the frontier's
// incident edge count stays below DefaultDenseThreshold·|V|, and falls back
// to the dense whole-vector sweep beyond it (the Beamer/Ligra
// direction-optimizing idea, applied to probability-mass walks). The budget
// scales with |V| rather than |E| because that is the actual trade: a dense
// sweep relaxes the same nonzero rows the push would, paying only a couple
// of extra O(|V|) passes, while the push pays per-edge dedup, frontier
// maintenance, and a sort-or-scan rebuild — so sparse wins only while the
// frontier's incident edges are a small fraction of |V|. The two step
// implementations perform the identical floating-point additions in the
// identical order, so the switch never changes a score bit.
const DefaultDenseThreshold = 0.25

// Engine evaluates DHT scores over a fixed graph with fixed parameters and a
// fixed truncation depth d. It owns scratch buffers sized to the graph, so a
// single Engine must not be used concurrently; create one per goroutine (or
// use an EnginePool).
//
// Walks are evaluated with an adaptive sparse/dense kernel: the engine keeps
// an explicit frontier (the sorted list of nodes carrying probability mass)
// and per step either pushes along only the frontier's CSR rows —
// O(frontier edges) — or performs a full O(|V|+|E|) sweep when the frontier
// has grown past DenseThreshold·|V| incident edges. Scratch vectors are cleared
// incrementally through the frontier lists, so a short walk from a single
// seed touches only the nodes it reaches. Counters record how much of each
// kind of work was performed; the experiment harness reports them alongside
// wall-clock times.
type Engine struct {
	G      *graph.Graph
	Params Params
	D      int

	// DenseThreshold overrides DefaultDenseThreshold when positive: the
	// step switches to a dense sweep once the frontier's incident edges
	// exceed DenseThreshold·|V|. Set very high to force sparse pushes
	// always.
	DenseThreshold float64

	// ForceDense disables the sparse path entirely, recovering the plain
	// dense-sweep engine. Used by tests as the reference kernel and by
	// counter-sensitive callers that want the original cost model.
	ForceDense bool

	// Sink, when non-nil, additionally receives every counter increment via
	// atomic adds — the way concurrent workers aggregate work into one
	// place. The plain fields below stay engine-local.
	Sink *Counters

	// scratch vectors, len = NumNodes
	cur, next []float64
	// frontier lists: curF is the exact sorted set of nonzero entries of
	// cur; nextF is reused as the touched-list of the step in flight.
	curF, nextF []graph.NodeID
	mark        []uint32 // per-node stamp deduplicating nextF
	stamp       uint32
	lastDense   bool // whether the most recent push ran dense
	// full marks the walk as switched to dense mode: frontier lists are no
	// longer maintained and every remaining step runs as a plain sweep —
	// exactly the pre-sparse kernel. The switch is sticky per walk: a
	// saturated frontier essentially never re-sparsifies mid-walk, and
	// staying dense avoids rebuilding the frontier after every sweep.
	full bool

	probBuf []float64 // ForwardScoreAt scratch, len ≤ max steps seen

	// BackWalkScores state: an engine-owned score column kept β-filled
	// between walks, so a short walk only writes (and later restores) the
	// entries it actually reaches instead of clearing O(|V|) per call.
	betaOut     []float64
	betaTouched []graph.NodeID
	betaFull    bool     // last BackWalkScores went dense; restore wholesale
	omark       []uint32 // walk-level touch stamps for betaOut
	ostamp      uint32

	// Counters since the last ResetCounters call.
	EdgeSweeps    int64 // number of full O(|E|) dense relaxation sweeps
	FrontierEdges int64 // edges relaxed by sparse pushes and scanned by gathers
	SparseSteps   int64 // walk steps served by the sparse path
	GatherSteps   int64 // walk steps served in pull form over a read set's tail
	Walks         int64 // number of walk invocations (forward or backward)
}

// validateConfig checks the (params, depth) half of an engine configuration,
// for every engine constructor and for the pool that builds engines later.
func validateConfig(p Params, d int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if d < 1 {
		return fmt.Errorf("dht: depth d must be >= 1, got %d", d)
	}
	return nil
}

// NewEngine builds an engine for g. d is the truncation depth (Equation 4);
// use Params.StepsForEpsilon to derive it from an accuracy target.
func NewEngine(g *graph.Graph, p Params, d int) (*Engine, error) {
	if err := validateConfig(p, d); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	return &Engine{
		G:      g,
		Params: p,
		D:      d,
		cur:    make([]float64, n),
		next:   make([]float64, n),
		mark:   make([]uint32, n),
	}, nil
}

// ResetCounters zeroes the work counters.
func (e *Engine) ResetCounters() {
	e.EdgeSweeps, e.FrontierEdges, e.SparseSteps, e.GatherSteps, e.Walks = 0, 0, 0, 0, 0
}

// beginWalk starts a walk: it counts the invocation, clears the previous
// walk's frontier, and snapshots the work counters for the Sink flush.
func (e *Engine) beginWalk() (sweeps0, frontier0 int64) {
	e.Walks++
	if e.full {
		clearVec(e.cur)
		e.full = false
	} else {
		for _, u := range e.curF {
			e.cur[u] = 0
		}
	}
	e.curF = e.curF[:0]
	return e.EdgeSweeps, e.FrontierEdges
}

// frontierEmpty reports whether no probability mass remains in flight. It is
// only meaningful in sparse mode; a dense-mode walk runs to full depth like
// the reference kernel.
func (e *Engine) frontierEmpty() bool {
	return !e.full && len(e.curF) == 0
}

// endWalk flushes the walk's counter deltas to the Sink, if any.
func (e *Engine) endWalk(sweeps0, frontier0 int64) {
	if e.Sink != nil {
		e.Sink.add(1, e.EdgeSweeps-sweeps0, e.FrontierEdges-frontier0)
	}
}

// seed places unit mass on the given nodes and establishes the frontier.
func (e *Engine) seed(nodes ...graph.NodeID) {
	for _, s := range nodes {
		if e.cur[s] == 0 {
			e.curF = append(e.curF, s)
		}
		e.cur[s] = 1
	}
	slices.Sort(e.curF)
}

// nextStamp advances the dedup stamp, clearing the mark array on wraparound.
func (e *Engine) nextStamp() uint32 {
	e.stamp++
	if e.stamp == 0 {
		clear(e.mark)
		e.stamp = 1
	}
	return e.stamp
}

// push advances the walk one step: next += P·cur along out-edges (forward)
// or in-edges (backward), then consumes cur, clearing only its nonzero
// entries. It chooses the sparse frontier push while the frontier's incident
// edges stay under the dense threshold, the full sweep otherwise. Both paths
// perform the same additions in ascending source-node order, so the choice
// is invisible in the results. tail, when it names a gather set, replaces the
// dense sweep this step would otherwise be — the batch engine's pull form, run
// through the lane kernel's gather at width 1; a step that stays sparse
// ignores it. After push, nextF holds the touched-node list (sparse, or the
// gathered set) or is empty with lastDense set (dense); commit finishes the
// step.
func (e *Engine) push(backward bool, tail hopSet) {
	g := e.G
	e.nextF = e.nextF[:0]
	sparse := !e.ForceDense && !e.full
	if sparse {
		df := e.DenseThreshold
		if df <= 0 {
			df = DefaultDenseThreshold
		}
		budget := int64(df * float64(g.NumNodes()))
		var work int64
		for _, u := range e.curF {
			if backward {
				work += int64(g.InDegree(u))
			} else {
				work += int64(g.OutDegree(u))
			}
			if work > budget {
				sparse = false
				break
			}
		}
		if sparse {
			e.SparseSteps++
			e.FrontierEdges += work
		}
	}
	pull := !sparse && tail.nodes != nil
	e.lastDense = !sparse && !pull
	cur, next := e.cur, e.next
	switch {
	case pull:
		// next is == the sweep's on the set and untouched elsewhere; the set
		// is the step's touched list, which commit filters a copy of.
		e.GatherSteps++
		e.FrontierEdges += tail.edges
		gather(cur, next, 1, 1, pullSide(g, backward), tail.nodes)
		e.nextF = append(e.nextF, tail.nodes...)
	case sparse:
		st := e.nextStamp()
		mark, touched := e.mark, e.nextF
		for _, u := range e.curF {
			m := cur[u]
			var nbr []graph.NodeID
			var tp []float64
			if backward {
				nbr, _, tp = g.InEdges(u)
			} else {
				nbr, _, tp = g.OutEdges(u)
			}
			for j, v := range nbr {
				if mark[v] != st {
					mark[v] = st
					touched = append(touched, v)
				}
				next[v] += m * tp[j]
			}
		}
		e.nextF = touched
	case backward:
		e.EdgeSweeps++
		for v := 0; v < g.NumNodes(); v++ {
			m := cur[v]
			if m == 0 {
				continue
			}
			from, _, fp := g.InEdges(graph.NodeID(v))
			for j := range from {
				next[from[j]] += fp[j] * m
			}
		}
	default:
		e.EdgeSweeps++
		for u := 0; u < g.NumNodes(); u++ {
			m := cur[u]
			if m == 0 {
				continue
			}
			to, _, tp := g.OutEdges(graph.NodeID(u))
			for j := range to {
				next[to[j]] += m * tp[j]
			}
		}
	}
	// cur is consumed; clear it — incrementally while the frontier is
	// tracked, wholesale once the walk has gone dense.
	if !e.full {
		for _, u := range e.curF {
			cur[u] = 0
		}
		e.curF = e.curF[:0]
	} else {
		clearVec(cur)
	}
	// Dense is sticky for the rest of the walk, except that a gather leaves
	// mass on its set only, so the frontier is tracked again after it.
	e.full = e.lastDense
}

// commit finishes a step after the caller has read (and possibly absorbed
// mass from) next: it rebuilds the exact sorted nonzero frontier of next and
// swaps the buffers, restoring the invariant that next is all-zero.
//
// last marks the walk's final step, whose frontier is only ever used to
// clear the vector before the next walk — so sorting and filtering are
// skipped: a sparse step hands over its raw touched list, a dense step
// leaves the vector for a full clear (curFull).
func (e *Engine) commit(last bool) {
	if e.lastDense {
		// Dense mode keeps no frontier: push left the consumed vector
		// all-zero, so the buffers just swap. e.full records that cur needs
		// a wholesale clear at the next walk.
		e.cur, e.next = e.next, e.cur
		return
	}
	next := e.next
	n := len(next)
	switch {
	case last:
		// The final frontier is only ever used to clear the vector before
		// the next walk, so the raw touched list (a superset of the
		// nonzero entries) is handed over unsorted and unfiltered.
	case len(e.nextF)*8 >= n:
		// Rebuild the frontier with one O(|V|) scan, sorted for free. A
		// dense step did not track touches at all, and for a sparse step
		// that touched a sizable fraction of the graph the scan is cheaper
		// than sorting the touched list.
		front := e.nextF[:0]
		for v := range next {
			if next[v] == 0 {
				continue
			}
			front = append(front, graph.NodeID(v))
		}
		e.nextF = front
	default:
		// Sorted frontier keeps the next sparse push's additions in the
		// same ascending order a dense sweep would use — the property that
		// makes the two paths bit-identical.
		slices.Sort(e.nextF)
		kept := e.nextF[:0]
		for _, v := range e.nextF {
			if next[v] == 0 {
				continue
			}
			kept = append(kept, v)
		}
		e.nextF = kept
	}
	e.cur, e.next = e.next, e.cur
	e.curF, e.nextF = e.nextF, e.curF
}

// ForwardHitProbs computes the first-hit probabilities P_1..P_steps(p, q) by
// an absorbing forward walk from p (the F-BJ primitive, §V-B): a probability
// vector is advanced one step at a time over out-edges, with the mass
// arriving at q recorded and absorbed. Cost O(steps·frontier edges), at most
// O(steps·|E|). Allocates the result; ForwardHitProbsInto reuses a buffer.
func (e *Engine) ForwardHitProbs(p, q graph.NodeID, steps int) []float64 {
	return e.ForwardHitProbsInto(p, q, make([]float64, steps))
}

// ForwardHitProbsInto is ForwardHitProbs with a caller-provided buffer:
// probs[i] = P_{i+1}(p, q) for i < len(probs). Returns probs.
func (e *Engine) ForwardHitProbsInto(p, q graph.NodeID, probs []float64) []float64 {
	sweeps0, frontier0 := e.beginWalk()
	clearVec(probs)
	if p == q {
		e.endWalk(sweeps0, frontier0)
		return probs // h(v,v) = 0 by definition; no first-hit mass
	}
	e.seed(p)
	for i := range probs {
		if e.frontierEmpty() {
			break // all mass absorbed or lost in a sink; P_j = 0 from here
		}
		e.push(false, hopSet{})
		probs[i] = e.next[q]
		e.next[q] = 0 // absorb: mass that hit q stops walking
		e.commit(i == len(probs)-1)
	}
	e.endWalk(sweeps0, frontier0)
	return probs
}

// ForwardScore computes h_d(p, q) with a forward absorbing walk.
func (e *Engine) ForwardScore(p, q graph.NodeID) float64 {
	return e.ForwardScoreAt(p, q, e.D)
}

// ForwardScoreAt computes the truncated score h_steps(p, q); the iterative
// deepening algorithms call it with steps < d to obtain cheap lower bounds.
func (e *Engine) ForwardScoreAt(p, q graph.NodeID, steps int) float64 {
	if p == q {
		return 0
	}
	return e.Params.Score(e.ForwardHitProbsInto(p, q, e.probsScratch(steps)))
}

// probsScratch returns the engine-owned per-step probability buffer.
func (e *Engine) probsScratch(steps int) []float64 {
	if cap(e.probBuf) < steps {
		e.probBuf = make([]float64, steps)
	}
	return e.probBuf[:steps]
}

// BackWalk performs a backward random walk of the given number of steps from
// q (Equation 5) and accumulates truncated DHT scores into out:
// out[u] = h_steps(u, q) for every node u ≠ q, and out[q] = 0.
//
// One BackWalk yields scores for *all* source nodes at once — the key
// advantage of backward processing (§VI-A). Short walks from a single target
// cost only O(steps·frontier edges) under the sparse kernel. out must have
// length NumNodes.
func (e *Engine) BackWalk(q graph.NodeID, steps int, out []float64) {
	e.backWalkProbs(q, steps, out, nil)
}

// BackWalkProbs is BackWalk but additionally records the per-step first-hit
// probabilities P_i(u,q) for selected sources: for each s in sources,
// hit[si][i-1] = P_i(sources[si], q). hit rows must have length steps.
func (e *Engine) BackWalkProbs(q graph.NodeID, steps int, out []float64, sources []graph.NodeID, hit [][]float64) {
	e.backWalkProbs(q, steps, out, func(i int, vec []float64) {
		for si, s := range sources {
			hit[si][i-1] = vec[s]
		}
	})
}

// backWalkProbs implements Equation 5. The walk starts as the indicator of
// q; each iteration advances every node's probability of first-hitting q via
// its out-neighbors (swept through the in-CSR so each arc is touched once),
// records the new P_i, then re-absorbs at q.
func (e *Engine) backWalkProbs(q graph.NodeID, steps int, out []float64, record func(i int, vec []float64)) {
	if len(out) != e.G.NumNodes() {
		panic(fmt.Sprintf("dht: BackWalk out has length %d, want %d", len(out), e.G.NumNodes()))
	}
	sweeps0, frontier0 := e.beginWalk()
	clearVec(out)
	e.seed(q)
	pow := 1.0
	for i := 1; i <= steps; i++ {
		if e.frontierEmpty() && record == nil {
			break // no mass can first-hit q anymore; P_j(·,q) = 0 from here
		}
		pow *= e.Params.Lambda
		e.push(true, hopSet{})
		// next[u] now equals P_i(u, q).
		if record != nil {
			record(i, e.next)
		}
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
		e.next[q] = 0 // walkers that reached q stop (Eq. 5 excludes v=q for i>1)
		e.commit(i == steps)
	}
	a, b := e.Params.Alpha, e.Params.Beta
	for u := range out {
		out[u] = a*out[u] + b
	}
	out[q] = 0 // h(q,q) = 0 by definition
	e.endWalk(sweeps0, frontier0)
}

// betaScoresStart restores the engine-owned score column to all-β (the
// score of an unreachable source) and arms the walk-level touch tracking.
func (e *Engine) betaScoresStart() []float64 {
	b := e.Params.Beta
	switch {
	case e.betaOut == nil:
		e.betaOut = make([]float64, e.G.NumNodes())
		e.omark = make([]uint32, e.G.NumNodes())
		for i := range e.betaOut {
			e.betaOut[i] = b
		}
	case e.betaFull:
		for i := range e.betaOut {
			e.betaOut[i] = b
		}
	default:
		for _, u := range e.betaTouched {
			e.betaOut[u] = b
		}
	}
	e.betaFull = false
	e.betaTouched = e.betaTouched[:0]
	e.ostamp++
	if e.ostamp == 0 {
		clear(e.omark)
		e.ostamp = 1
	}
	return e.betaOut
}

// BackWalkScores is BackWalkKind into an engine-owned buffer that is never
// cleared wholesale: untouched entries already hold β (exactly the score of
// a source that cannot reach q within the walk), so a short walk from a
// sparse target costs only its frontier — the primitive behind B-IDJ's
// near-free early rounds. The returned slice is valid until the next
// BackWalkScores call on this engine and must not be modified.
func (e *Engine) BackWalkScores(kind Kind, q graph.NodeID, steps int) []float64 {
	sweeps0, frontier0 := e.beginWalk()
	out := e.betaScoresStart()
	ost, omark := e.ostamp, e.omark
	e.seed(q)
	pow := 1.0
	absorb := kind == FirstHit
	for i := 1; i <= steps; i++ {
		if e.frontierEmpty() {
			break // no mass can reach q anymore
		}
		pow *= e.Params.Lambda
		e.push(true, hopSet{})
		next := e.next
		if e.lastDense {
			// First dense step: overwrite the β prefill with the raw sum at
			// first touch so the fold matches the reference exactly.
			if !e.betaFull {
				e.betaFull = true
				for u := range next {
					if omark[u] == ost {
						out[u] += pow * next[u]
					} else {
						out[u] = pow * next[u]
					}
				}
			} else {
				for u := range next {
					out[u] += pow * next[u]
				}
			}
		} else {
			touched := e.betaTouched
			for _, u := range e.nextF {
				if omark[u] == ost {
					out[u] += pow * next[u]
				} else {
					omark[u] = ost
					touched = append(touched, u)
					out[u] = pow * next[u]
				}
			}
			e.betaTouched = touched
		}
		if absorb {
			next[q] = 0 // walkers that reached q stop (Eq. 5)
		}
		e.commit(i == steps)
	}
	a, b := e.Params.Alpha, e.Params.Beta
	if e.betaFull {
		for u := range out {
			out[u] = a*out[u] + b
		}
	} else {
		for _, u := range e.betaTouched {
			out[u] = a*out[u] + b
		}
	}
	if absorb {
		if !e.betaFull && omark[q] != ost {
			omark[q] = ost
			e.betaTouched = append(e.betaTouched, q)
		}
		out[q] = 0 // h(q,q) = 0 by definition
	}
	e.endWalk(sweeps0, frontier0)
	return out
}

// ReachProbs advances an unabsorbed walk from the seed set and reports, for
// each step i = 1..steps, the total reach mass Σ_{p∈seeds} S_i(p, v) at the
// selected targets: res[i-1][ti] = Σ_p S_i(p, targets[ti]). This is the
// ingredient of the Y⁺ₗ bound (Theorem 1). Allocates the result;
// ReachProbsInto reuses caller rows.
func (e *Engine) ReachProbs(seeds, targets []graph.NodeID, steps int) [][]float64 {
	return e.ReachProbsInto(seeds, targets, reachRows(steps, len(targets)))
}

// reachRows allocates ReachProbs' result: steps rows of n entries.
func reachRows(steps, n int) [][]float64 {
	res := make([][]float64, steps)
	flat := make([]float64, steps*n)
	for i := range res {
		res[i] = flat[i*n : (i+1)*n]
	}
	return res
}

// ReachProbsInto is ReachProbs with caller-provided rows: len(res) selects
// the number of steps and each row must have length len(targets). Returns
// res.
func (e *Engine) ReachProbsInto(seeds, targets []graph.NodeID, res [][]float64) [][]float64 {
	return e.reachProbsInto(seeds, targets, res, nil)
}

// reachProbsInto is ReachProbsInto reading the walk at rs's rows only (nil:
// anywhere): rs must be a forward read set over targets, whose last two steps
// then gather at the targets and their in-neighbours instead of sweeping.
func (e *Engine) reachProbsInto(seeds, targets []graph.NodeID, res [][]float64, rs *ReadSet) [][]float64 {
	if rs != nil && (rs.g != e.G || rs.backward) {
		panic("dht: read set built for another graph or walk direction")
	}
	sweeps0, frontier0 := e.beginWalk()
	e.seed(seeds...)
	for i := range res {
		clearVec(res[i])
		if e.frontierEmpty() {
			continue // mass all lost in sinks; S_j = 0 from here
		}
		e.push(false, rs.tailAt(len(res)-1-i))
		for ti, t := range targets {
			res[i][ti] = e.next[t]
		}
		e.commit(i == len(res)-1)
	}
	e.endWalk(sweeps0, frontier0)
	return res
}

func clearVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
