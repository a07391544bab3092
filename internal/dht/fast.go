package dht

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// DefaultFastWidth is the lane count of the FastCertified batch kernel: 16
// float32 walk columns — one 64-byte cache line per node, the same line
// budget as the bit-identical kernel's 8 float64 lanes, at twice the width.
const DefaultFastWidth = 16

// fastRowBlock is the number of destination rows one parallel work unit
// claims. Blocks keep each worker streaming through a contiguous slice of
// the CSR arrays (cache blocking) while the atomic claim counter
// load-balances skewed degree distributions.
const fastRowBlock = 256

// fastParallelMin is the smallest node count worth fanning a sweep out to
// multiple workers; below it the per-round goroutine and barrier overhead
// exceeds the sweep itself.
const fastParallelMin = 4 * fastRowBlock

// FastBatchEngine is the FastCertified walk kernel: float32 lanes at
// DefaultFastWidth, cache-blocked CSR row scans, and multi-core partitioned
// sweeps merged at a per-round barrier. It trades the bit-identical
// contract for throughput, and quantifies the trade: every score it returns
// is within ScoreBound() of the bit-identical reference value, so a joiner
// can certify a ranking from fast scores and re-verify only the pairs whose
// ε-band straddles the cut.
//
// The kernel differs from BatchEngine in three deliberate ways:
//
//   - Pull-form sweeps. Each round computes every destination row from its
//     own adjacency list (backward pulls over out-edges, forward pulls over
//     in-edges), so rows partition disjointly across workers — no write
//     sharing, no atomics in the hot loop, and the per-round barrier is the
//     whole "merge partitioned frontiers" protocol. Results are
//     deterministic for a fixed graph regardless of worker count, because
//     each row is summed sequentially in adjacency order by exactly one
//     worker; they are merely not bit-identical to the float64 push kernel.
//   - Always dense. The fast path exists for walk-dominated batch work
//     where frontiers saturate within a step or two; skipping frontier
//     maintenance keeps the inner loop at two fused multiply-adds per edge
//     lane. A zero-mass round still exits early.
//   - float32 arithmetic, float64 fold. Probabilities live in [0,1] where
//     float32 keeps ~2⁻²³ relative precision; the affine score fold
//     (α·s + β) runs in float64 so the fold itself adds no lane error.
//
// Like the other engines, a FastBatchEngine is single-checkout: it owns its
// scratch and output buffers, and concurrent use must go through
// EnginePool.GetFast/PutFast.
type FastBatchEngine struct {
	G      *graph.Graph
	Params Params
	D      int
	W      int // float32 lane count per CSR sweep

	// Workers is the sweep fan-out; 0 selects GOMAXPROCS. Small graphs run
	// serial regardless — see fastParallelMin.
	Workers int

	// Sink, when non-nil, receives per-batch counter deltas, exactly like
	// BatchEngine.Sink.
	Sink *Counters

	// eps is the conservative per-score rounding bound computed once at
	// construction from (λ, d, max degree); see fastScoreBound.
	eps float64

	// Pull-form float32 transition probabilities, flattened in adjacency
	// order with per-row offsets: outP[outOff[u]:outOff[u+1]] aligns with
	// G.OutEdges(u) (backward pulls), inP likewise with G.InEdges (forward).
	outOff, inOff []int64
	outP, inP     []float32

	// Node-major lane buffers, len = NumNodes·W: cur/next are the walk
	// vectors swapped each round, acc accumulates Σ λ^i·P_i per lane.
	cur, next, acc []float32

	// Engine-owned batch outputs, reused across calls (BatchEngine idiom).
	out       [][]float64
	outFlat   []float64
	probs     [][]float64
	probsFlat []float64

	masses []float64 // per-worker mass partials, reduced after the barrier

	// Counters since construction; deltas flush to Sink per batch.
	Walks      int64 // walk columns evaluated
	EdgeSweeps int64 // full dense rounds (each touches every edge once)
}

// NewFastBatchEngine builds a FastCertified kernel for g with lane width w
// (0 selects DefaultFastWidth) and the given sweep fan-out (0 selects
// GOMAXPROCS at run time).
func NewFastBatchEngine(g *graph.Graph, p Params, d, w, workers int) (*FastBatchEngine, error) {
	if err := validateConfig(p, d); err != nil {
		return nil, err
	}
	if w == 0 {
		w = DefaultFastWidth
	}
	if w < 1 {
		return nil, fmt.Errorf("dht: fast batch width must be >= 1, got %d", w)
	}
	n := g.NumNodes()
	fe := &FastBatchEngine{
		G: g, Params: p, D: d, W: w, Workers: workers,
		cur:  make([]float32, n*w),
		next: make([]float32, n*w),
		acc:  make([]float32, n*w),
	}
	fe.outOff, fe.outP = pullProbs(n, g.NumEdges(), func(u graph.NodeID) []float64 {
		_, _, tp := g.OutEdges(u)
		return tp
	})
	fe.inOff, fe.inP = pullProbs(n, g.NumEdges(), func(u graph.NodeID) []float64 {
		_, _, fp := g.InEdges(u)
		return fp
	})
	maxDeg := 0
	for u := 0; u < n; u++ {
		if dg := g.OutDegree(graph.NodeID(u)); dg > maxDeg {
			maxDeg = dg
		}
		if dg := g.InDegree(graph.NodeID(u)); dg > maxDeg {
			maxDeg = dg
		}
	}
	fe.eps = fastScoreBound(p, d, maxDeg)
	return fe, nil
}

// pullProbs flattens one direction's transition probabilities to float32 in
// adjacency order with per-row offsets.
func pullProbs(n, edges int, row func(u graph.NodeID) []float64) ([]int64, []float32) {
	off := make([]int64, n+1)
	ps := make([]float32, 0, edges)
	for u := 0; u < n; u++ {
		for _, p := range row(graph.NodeID(u)) {
			ps = append(ps, float32(p))
		}
		off[u+1] = int64(len(ps))
	}
	return off, ps
}

// fastScoreBound derives the conservative per-score error bound ε of the
// float32 kernel against the bit-identical float64 reference.
//
// Every intermediate probability is a sum of products of row-stochastic
// transition probabilities, so all magnitudes stay in [0,1] and relative
// float32 errors (unit roundoff u = 2⁻²³) never amplify across a step — a
// step is a convex-combination pull. Charging the worst case per term:
//
//   - Converting a transition probability to float32 costs one u; each
//     fused multiply-add in a row sum of ≤ Δ terms costs ≤ Δ·u more, so one
//     round adds ≤ (Δ+2)·u relative error, and the mass feeding step i has
//     accumulated ≤ i·(Δ+2)·u.
//   - The λ-power weighting and the final fold add ≤ (d+2)·u on top.
//
// Weighting each round's error by its maximum possible contribution to the
// score (λ^i, since P_i ≤ 1) and scaling by |α| gives
//
//	ε = slack · |α| · Σ_{i=1..d} λ^i · (i·(Δ+2)·u + (d+2)·u)
//
// with slack = 4 absorbing the difference between this per-term model and
// true error composition. The property tests validate the bound empirically
// (fast vs. exact scores on adversarial graphs); certification correctness
// additionally only needs the bound to be conservative, never tight.
func fastScoreBound(p Params, d, maxDeg int) float64 {
	const u = 1.0 / (1 << 23)
	const slack = 4.0
	sum := 0.0
	pow := 1.0
	for i := 1; i <= d; i++ {
		pow *= p.Lambda
		sum += pow * (float64(i)*(float64(maxDeg)+2)*u + float64(d+2)*u)
	}
	return slack * math.Abs(p.Alpha) * sum
}

// Contract reports the FastCertified guarantee: scores within ScoreBound()
// of the reference, not bit-identical.
func (fe *FastBatchEngine) Contract() Contract { return FastCertified }

// ScoreBound returns the per-score error bound ε every batch result of this
// engine satisfies.
func (fe *FastBatchEngine) ScoreBound() float64 { return fe.eps }

// Width reports the engine's lane count.
func (fe *FastBatchEngine) Width() int { return fe.W }

// ResetCounters zeroes the work counters.
func (fe *FastBatchEngine) ResetCounters() { fe.Walks, fe.EdgeSweeps = 0, 0 }

// workerCount resolves the sweep fan-out for an n-row graph.
func (fe *FastBatchEngine) workerCount(n int) int {
	if n < fastParallelMin {
		return 1
	}
	w := fe.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if blocks := (n + fastRowBlock - 1) / fastRowBlock; w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// sweepRange advances rows [lo, hi) one round: each destination row is
// rebuilt from scratch as the probability-weighted pull over its adjacency
// list, and (when accumulating) folded into acc with the round's λ-power.
// Returns the total mass written, the early-exit signal.
func (fe *FastBatchEngine) sweepRange(backward bool, aw int, pow float32, accumulate bool, lo, hi int) float64 {
	w := fe.W
	g := fe.G
	cur, next, acc := fe.cur, fe.next, fe.acc
	off, probs := fe.inOff, fe.inP
	if backward {
		off, probs = fe.outOff, fe.outP
	}
	var mass float64
	for u := lo; u < hi; u++ {
		var nbr []graph.NodeID
		if backward {
			nbr, _, _ = g.OutEdges(graph.NodeID(u))
		} else {
			nbr, _, _ = g.InEdges(graph.NodeID(u))
		}
		ps := probs[off[u]:off[u+1]]
		base := u * w
		row := next[base : base+aw]
		for c := range row {
			row[c] = 0
		}
		for j, v := range nbr {
			pv := ps[j]
			src := cur[int(v)*w : int(v)*w+aw]
			for c, m := range src {
				row[c] += pv * m
			}
		}
		if accumulate {
			arow := acc[base : base+aw]
			for c, m := range row {
				arow[c] += pow * m
				mass += float64(m)
			}
		} else {
			for _, m := range row {
				mass += float64(m)
			}
		}
	}
	return mass
}

// sweep runs one full round over every destination row, partitioned across
// workers in fastRowBlock units claimed off an atomic counter. The
// WaitGroup barrier is the per-round merge point: after it, next holds the
// complete new walk vector and the per-worker mass partials reduce to the
// round's total. Row ownership is disjoint, so the sweep is race-free by
// construction and its result is independent of the worker count.
func (fe *FastBatchEngine) sweep(backward bool, aw int, pow float32, accumulate bool) float64 {
	n := fe.G.NumNodes()
	fe.EdgeSweeps++
	workers := fe.workerCount(n)
	if workers == 1 {
		return fe.sweepRange(backward, aw, pow, accumulate, 0, n)
	}
	if cap(fe.masses) < workers {
		fe.masses = make([]float64, workers)
	}
	masses := fe.masses[:workers]
	var nextBlock atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var m float64
			for {
				b := int(nextBlock.Add(1) - 1)
				lo := b * fastRowBlock
				if lo >= n {
					break
				}
				hi := lo + fastRowBlock
				if hi > n {
					hi = n
				}
				m += fe.sweepRange(backward, aw, pow, accumulate, lo, hi)
			}
			masses[k] = m
		}(k)
	}
	wg.Wait()
	var total float64
	for _, m := range masses {
		total += m
	}
	return total
}

// beginFastBatch zeroes the walk and accumulator lanes and snapshots the
// sweep counter for the Sink flush.
func (fe *FastBatchEngine) beginFastBatch(cols int) (sweeps0 int64) {
	fe.Walks += int64(cols)
	clearVec32(fe.cur)
	clearVec32(fe.acc)
	return fe.EdgeSweeps
}

// endFastBatch flushes the batch's counter deltas to the Sink, if any. The
// fast kernel has no sparse path, so the frontier-edge delta is zero.
func (fe *FastBatchEngine) endFastBatch(cols int, sweeps0 int64) {
	if fe.Sink != nil {
		fe.Sink.add(int64(cols), fe.EdgeSweeps-sweeps0, 0)
	}
}

// BackWalkScoresBatch is BatchEngine.BackWalkScoresBatch under the
// FastCertified contract: column c approximates a solo
// BackWalkScores(kind, qs[c], steps) run within ScoreBound(). Returned
// columns are engine-owned, valid until the next batch call on this engine.
// len(qs) must be in [1, W].
func (fe *FastBatchEngine) BackWalkScoresBatch(kind Kind, qs []graph.NodeID, steps int) [][]float64 {
	aw := len(qs)
	if aw == 0 || aw > fe.W {
		panic(fmt.Sprintf("dht: fast BackWalkScoresBatch with %d targets, want 1..%d", aw, fe.W))
	}
	w := fe.W
	sweeps0 := fe.beginFastBatch(aw)
	for c, q := range qs {
		fe.cur[int(q)*w+c] = 1
	}
	absorb := kind == FirstHit
	pow := float32(1)
	lam := float32(fe.Params.Lambda)
	for i := 1; i <= steps; i++ {
		pow *= lam
		mass := fe.sweep(true, aw, pow, true)
		if absorb {
			for c, q := range qs {
				fe.next[int(q)*w+c] = 0 // walkers that reached q stop (Eq. 5)
			}
		}
		fe.cur, fe.next = fe.next, fe.cur
		if mass == 0 {
			break // no column carries mass anymore; P_j = 0 from here
		}
	}
	out := fe.scoreRows(aw)
	a, b := fe.Params.Alpha, fe.Params.Beta
	n := fe.G.NumNodes()
	for c := 0; c < aw; c++ {
		col := out[c]
		for v := 0; v < n; v++ {
			// The affine fold runs in float64: the lane error is already
			// paid inside acc, the fold adds none.
			col[v] = a*float64(fe.acc[v*w+c]) + b
		}
	}
	if absorb {
		for c, q := range qs {
			out[c][q] = 0 // h(q,q) = 0 by definition
		}
	}
	fe.endFastBatch(aw, sweeps0)
	return out
}

// ForwardProbsBatch is BatchEngine.ForwardProbsBatch under the
// FastCertified contract: row c approximates the solo per-step
// probabilities of pair c's walk; a Params.Score fold of a row lands within
// ScoreBound() of the exact score. Returned rows are engine-owned, valid
// until the next batch call. len(ps) must equal len(qs) and lie in [1, W].
func (fe *FastBatchEngine) ForwardProbsBatch(kind Kind, ps, qs []graph.NodeID, steps int) [][]float64 {
	aw := len(ps)
	if aw != len(qs) {
		panic(fmt.Sprintf("dht: fast ForwardProbsBatch with %d sources, %d targets", len(ps), len(qs)))
	}
	if aw == 0 || aw > fe.W {
		panic(fmt.Sprintf("dht: fast ForwardProbsBatch with %d pairs, want 1..%d", aw, fe.W))
	}
	w := fe.W
	probs := fe.probsRows(aw, steps)
	sweeps0 := fe.beginFastBatch(aw)
	absorb := kind == FirstHit
	for c, p := range ps {
		if absorb && p == qs[c] {
			continue // no first-hit mass: h(v,v) = 0 by definition
		}
		fe.cur[int(p)*w+c] = 1
	}
	for i := 0; i < steps; i++ {
		mass := fe.sweep(false, aw, 0, false)
		for c, q := range qs {
			idx := int(q)*w + c
			probs[c][i] = float64(fe.next[idx])
			if absorb {
				fe.next[idx] = 0 // absorb: mass that hit q stops walking
			}
		}
		fe.cur, fe.next = fe.next, fe.cur
		if mass == 0 {
			break // all mass absorbed or lost in sinks; P_j = 0 from here
		}
	}
	fe.endFastBatch(aw, sweeps0)
	return probs
}

// scoreRows returns engine-owned score columns, aw × NumNodes.
func (fe *FastBatchEngine) scoreRows(aw int) [][]float64 {
	n := fe.G.NumNodes()
	if cap(fe.outFlat) < fe.W*n {
		fe.outFlat = make([]float64, fe.W*n)
		fe.out = make([][]float64, fe.W)
	}
	flat := fe.outFlat[:fe.W*n]
	rows := fe.out[:aw]
	for c := range rows {
		rows[c] = flat[c*n : (c+1)*n]
	}
	return rows
}

// probsRows returns zeroed engine-owned rows, aw × steps.
func (fe *FastBatchEngine) probsRows(aw, steps int) [][]float64 {
	if cap(fe.probsFlat) < fe.W*steps {
		fe.probsFlat = make([]float64, fe.W*steps)
		fe.probs = make([][]float64, fe.W)
	}
	flat := fe.probsFlat[:fe.W*steps]
	clearVec(flat[:aw*steps])
	rows := fe.probs[:aw]
	for c := range rows {
		rows[c] = flat[c*steps : (c+1)*steps]
	}
	return rows
}

func clearVec32(v []float32) {
	for i := range v {
		v[i] = 0
	}
}
