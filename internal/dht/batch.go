package dht

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// DefaultBatchWidth is the number of walk columns a BatchEngine advances per
// CSR row scan when the caller does not choose a width. Eight float64 lanes
// are exactly one 64-byte cache line, so each node's mass block occupies a
// single line: relaxing an edge touches one line of cur and one of next no
// matter how many of the lanes carry mass through it. The default is a
// cache-line consequence of the float64 element type, not a property of the
// kernel — callers may pick any width, and a lone walk runs at width 1.
const DefaultBatchWidth = 8

// DefaultDenseThreshold is the sparse→dense switch point of the adaptive
// walk kernel: a step runs as a sparse frontier push while the frontier's
// incident edge count stays below DefaultDenseThreshold·|V|, and falls back
// to the dense whole-vector sweep beyond it (the Beamer/Ligra
// direction-optimizing idea, applied to probability-mass walks). The budget
// scales with |V| rather than |E| because that is the actual trade: a dense
// sweep relaxes the same nonzero rows the push would, paying only a couple
// of extra O(|V|) passes, while the push pays per-edge dedup, frontier
// maintenance, and a sort-or-scan rebuild — so sparse wins only while the
// frontier's incident edges are a small fraction of |V|. Both step forms make
// the identical floating-point additions in the identical order, so the
// switch never changes a score bit.
const DefaultDenseThreshold = 0.25

// BatchEngine evaluates up to W independent truncated walks over one graph
// with one CSR traversal per step; a lone walk is an engine of width 1. The
// scratch vectors are laid out node-major: node v's W column masses are the
// contiguous block [v*W, v*W+W), so one edge relaxation updates all columns
// from a single pair of cache lines.
//
// Each step advances the union frontier (the sorted set of nodes where *any*
// column carries mass) and chooses between a sparse push over only the
// frontier's CSR rows and a dense whole-graph sweep once the union frontier's
// incident edges exceed DenseThreshold·|V|. Scratch is cleared through the
// frontier lists, so a short walk touches only the nodes it reaches. Within a
// row every lane is relaxed, the zero-mass ones as exact x + (+0) no-ops, so
// every column ends up with exactly the sums of the width-1 ForceDense walk
// (the textbook ascending dense loop), added in the same ascending
// source-node order — each column is bit-identical (== on every float64) to
// that reference regardless of the width, of what the other columns do and of
// where the sparse→dense switch lands. See DESIGN.md ("The walk engine" for
// the argument, "The lane kernel" for the arithmetic).
//
// A BatchEngine owns its scratch and is single-goroutine; create one per
// goroutine or check them out of an EnginePool (Get, GetBatch).
type BatchEngine struct {
	G      *graph.Graph
	Params Params
	D      int
	W      int // column capacity; calls may use any active width ≤ W

	// DenseThreshold overrides DefaultDenseThreshold when positive; it applies
	// to the union frontier. Set very high to force sparse pushes always.
	DenseThreshold float64

	// ForceDense disables the sparse path entirely; at width 1 it is the
	// reference kernel of the tests.
	ForceDense bool

	// Sink, when non-nil, receives per-batch counter deltas via atomic adds.
	Sink *Counters

	// mass vectors, len = NumNodes·W, node-major blocks of W
	cur, next []float64
	// union-frontier lists: curF is the sorted set of nodes where any lane
	// is nonzero; nextF is reused as the touched list of the step in flight.
	curF, nextF []graph.NodeID
	mark        []uint32 // per-node stamp deduplicating nextF
	stamp       uint32
	// full marks the batch as switched to dense mode: frontier lists are no
	// longer kept, every remaining step is a sweep or a gather, and both
	// vectors hold stale mass until beginBatch clears them. The switch is
	// sticky per batch (a saturated frontier essentially never re-sparsifies).
	full bool

	// acc is the dense-mode score accumulator, node-major like the mass
	// vectors: once a batch goes dense, per-step accumulation is one
	// sequential pass acc[i] += pow·next[i] instead of W strided column
	// writes; the affine fold transposes it into the out columns at the
	// end. Raw sums move between the out columns and acc exactly once (at
	// the sparse→dense switch), preserving the step-order addition sequence
	// that makes each column bit-identical to the reference.
	acc []float64

	// Engine-owned score columns for BackWalkScoresBatch, kept β-prefilled
	// between calls, so a short walk writes (and later restores) only the
	// entries it reaches. colMark is node-major like the mass vectors:
	// colMark[v*W+c] stamps (node v, column c).
	out        [][]float64
	colTouched [][]graph.NodeID
	colMark    []uint32
	ostamp     uint32
	outFull    bool // previous batch went dense; restore columns wholesale
	prevAW     int  // active width of the previous BackWalkScoresBatch call

	// Engine-owned per-step probability rows for ForwardProbsBatch.
	probs     [][]float64
	probsFlat []float64

	// Counters since construction. One batched step counts its CSR traversal
	// once, not once per column: EdgeSweeps is the number of dense sweeps,
	// SparseSteps the number of sparse pushes, and FrontierEdges the CSR
	// edges those pushes scanned. Walks counts individual columns, so
	// walks-per-sweep shows the amortization. A gather step (a read set's
	// tail) is neither: GatherSteps counts it and its scanned edges go to
	// FrontierEdges, as Counters documents. PullSweeps counts the EdgeSweeps
	// that ran in pull form (every dense step after a batch's first); like
	// SparseSteps and GatherSteps it stays on the engine.
	EdgeSweeps    int64
	FrontierEdges int64
	SparseSteps   int64
	GatherSteps   int64
	PullSweeps    int64
	Walks         int64
}

// validateConfig checks the (params, depth) half of an engine configuration,
// for the engine constructor and for the pool that builds engines later.
func validateConfig(p Params, d int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if d < 1 {
		return fmt.Errorf("dht: depth d must be >= 1, got %d", d)
	}
	return nil
}

// ReadSet names the rows a caller reads from the walk's mass: the rows form
// of a walk accumulates or reads at those rows only and computes its last two
// steps, when they would be dense sweeps, in pull form over the rows'
// neighbourhood on the side opposite to the walk's push. A backward set (the
// batched score columns, read at P) gathers over out-edges; a forward set
// (the Y⁺ₗ table's reach walk, read at Q) over in-edges. It belongs to one
// graph, is immutable, and may be shared by concurrent engines.
type ReadSet struct {
	g        *graph.Graph
	backward bool
	rows     []graph.NodeID // R0: ascending, duplicate-free
	// tail[h] is the gather set of a step with h more steps to follow: mass
	// can still reach a row only from within h hops of the rows, so the last
	// step needs R0 and the one before it R1 = R0 ∪ its neighbours on the
	// gathered side.
	tail [2]hopSet
}

// hopSet is one gather set. nodes is nil when the set is not worth a gather:
// a set whose gathered edges are not below half the graph's saves too little
// over the sweep it would replace (and one hop further is most of the graph
// on any small-world input, which is why there is no tail[2]).
type hopSet struct {
	nodes []graph.NodeID // ascending, duplicate-free
	edges int64          // Σ degree on the gathered side: what one gather scans
}

// NewReadSet returns the read set of rows (any order, duplicates allowed,
// not retained) for backward walks. Rows that are not a minority of the
// graph's nodes are no restriction worth tracking, and the result is nil —
// which every consumer reads as "all rows".
func NewReadSet(g *graph.Graph, rows []graph.NodeID) *ReadSet { return newReadSet(g, rows, true) }

// newReadSet is NewReadSet for walks in either direction.
func newReadSet(g *graph.Graph, rows []graph.NodeID, backward bool) *ReadSet {
	if 2*len(rows) >= g.NumNodes() {
		return nil
	}
	rs := &ReadSet{g: g, backward: backward, rows: slices.Compact(slices.Sorted(slices.Values(rows)))}
	side := pullSide(g, backward)
	hop := rs.rows
	for h := range rs.tail {
		if h > 0 {
			prev := rs.tail[h-1]
			hop = append(make([]graph.NodeID, 0, len(prev.nodes)+int(prev.edges)), prev.nodes...)
			for _, u := range prev.nodes {
				hop = append(hop, side.Nbr[side.Index[u]:side.Index[u+1]]...)
			}
			slices.Sort(hop)
			hop = slices.Compact(hop)
		}
		var edges int64
		for _, u := range hop {
			edges += side.Index[u+1] - side.Index[u]
		}
		if 2*edges >= int64(g.NumEdges()) {
			break
		}
		rs.tail[h] = hopSet{nodes: hop, edges: edges}
	}
	return rs
}

// tailAt returns the gather set of a step with h more steps to follow (none
// for a nil read set or an h beyond the tail).
func (rs *ReadSet) tailAt(h int) hopSet {
	if rs == nil || h >= len(rs.tail) {
		return hopSet{}
	}
	return rs.tail[h]
}

// pushSide is the CSR a walk pushes mass along: in-edges backward, out-edges
// forward. pullSide is the mirror a gather sums over, which makes the same
// additions in the same order (Graph.Validate pins the mirror).
func pushSide(g *graph.Graph, backward bool) graph.CSR {
	if backward {
		return g.In()
	}
	return g.Out()
}

func pullSide(g *graph.Graph, backward bool) graph.CSR { return pushSide(g, !backward) }

// NewBatchEngine builds a batch engine for g with column capacity w
// (w <= 0 selects DefaultBatchWidth). d is the truncation depth.
func NewBatchEngine(g *graph.Graph, p Params, d, w int) (*BatchEngine, error) {
	if err := validateConfig(p, d); err != nil {
		return nil, err
	}
	if w <= 0 {
		w = DefaultBatchWidth
	}
	n := g.NumNodes()
	return &BatchEngine{
		G:      g,
		Params: p,
		D:      d,
		W:      w,
		cur:    make([]float64, n*w),
		next:   make([]float64, n*w),
		mark:   make([]uint32, n),
	}, nil
}

// beginBatch starts a batched run of cols columns: counts the walks, clears
// the previous batch's mass (through its frontier, or both vectors wholesale
// after a dense batch), and snapshots counters for the Sink flush.
func (be *BatchEngine) beginBatch(cols int) (sweeps0, frontier0 int64) {
	be.Walks += int64(cols)
	if be.full {
		clearVec(be.cur)
		clearVec(be.next)
		be.full = false
	} else {
		w := be.W
		for _, u := range be.curF {
			clear(be.cur[int(u)*w:][:w])
		}
	}
	be.curF = be.curF[:0]
	return be.EdgeSweeps, be.FrontierEdges
}

// endBatch flushes counter deltas to the Sink, if any.
func (be *BatchEngine) endBatch(cols int, sweeps0, frontier0 int64) {
	if be.Sink != nil {
		be.Sink.add(int64(cols), be.EdgeSweeps-sweeps0, be.FrontierEdges-frontier0)
	}
}

// frontierEmpty reports whether no column carries mass anymore (sparse mode
// only; a dense batch runs to full depth like the reference kernel).
func (be *BatchEngine) frontierEmpty() bool {
	return !be.full && len(be.curF) == 0
}

// nextStamp advances the union-frontier dedup stamp.
func (be *BatchEngine) nextStamp() uint32 {
	be.stamp++
	if be.stamp == 0 {
		clear(be.mark)
		be.stamp = 1
	}
	return be.stamp
}

// seed places unit mass on node s in column c, adding s to the union
// frontier when no column had mass there yet (so the list stays
// duplicate-free; the caller sorts it once seeding is done).
func (be *BatchEngine) seed(c int, s graph.NodeID) {
	b := int(s) * be.W
	if !anyNonZero(be.cur[b : b+be.W]) {
		be.curF = append(be.curF, s)
	}
	be.cur[b+c] = 1
}

// push advances every column one step: next += P·cur along out-edges
// (forward) or in-edges (backward) for aw active lanes, then consumes cur.
// It decides the step's form and keeps the frontier, whose ascending order
// makes every form add in the dense sweep's source order; the arithmetic is
// the lane kernel's (lanes.go). tail, when it names a gather set, replaces
// the dense sweep this step would otherwise be; a step that stays sparse
// ignores it.
//
// A dense step is a scatter when it is the batch's first (next is all-zero,
// and most rows of cur still are, which a scatter skips) and a pull over
// every row afterwards: a gather along the mirror CSR that overwrites every
// row of next, so the consumed vector is never cleared until beginBatch.
// From the first dense step to the end of the batch every step is a sweep or
// a gather — neither reads next — and the vectors hold stale mass off the
// rows a gather wrote, which no later step or caller reads (a gather set's
// neighbourhood lies within the previous step's set). ForceDense scatters
// every dense step into a cleared vector, the reference loop.
func (be *BatchEngine) push(backward bool, aw int, tail hopSet) {
	g := be.G
	w := be.W
	side := pushSide(g, backward)
	be.nextF = be.nextF[:0]
	sparse := !be.ForceDense && !be.full
	if sparse {
		df := be.DenseThreshold
		if df <= 0 {
			df = DefaultDenseThreshold
		}
		budget := int64(df * float64(g.NumNodes()))
		var work int64
		for _, u := range be.curF {
			work += side.Index[u+1] - side.Index[u]
			if work > budget {
				sparse = false
				break
			}
		}
		if sparse {
			be.SparseSteps++
			be.FrontierEdges += work
		}
	}
	cur, next := be.cur, be.next
	switch {
	case sparse:
		st := be.nextStamp()
		mark, touched := be.mark, be.nextF
		for _, u := range be.curF {
			for _, v := range side.Nbr[side.Index[u]:side.Index[u+1]] {
				if mark[v] != st {
					mark[v] = st
					touched = append(touched, v)
				}
			}
		}
		be.nextF = touched
		scatter(cur, next, w, aw, side, be.curF)
	case tail.nodes != nil:
		// Pull form: next is == the sweep's on the set and untouched elsewhere,
		// all that a caller reading within the set's remaining reach observes.
		be.GatherSteps++
		be.FrontierEdges += tail.edges
		gather(cur, next, w, aw, pullSide(g, backward), tail.nodes)
		// The set is the step's touched list; commit filters a copy of it.
		be.nextF = append(be.nextF, tail.nodes...)
	case be.full && !be.ForceDense:
		be.EdgeSweeps++
		be.PullSweeps++
		gather(cur, next, w, aw, pullSide(g, backward), nil)
	default:
		be.EdgeSweeps++
		scatter(cur, next, w, aw, side, nil)
	}
	// cur is consumed; clear it incrementally while the frontier is tracked.
	// Once the batch is dense only the reference clears it, wholesale, for
	// its next scatter.
	switch {
	case !be.full:
		for _, u := range be.curF {
			clear(cur[int(u)*w:][:w])
		}
		be.curF = be.curF[:0]
	case be.ForceDense:
		clearVec(cur)
	}
	// Dense is sticky for the rest of the batch.
	be.full = be.full || !sparse && tail.nodes == nil
}

// commit finishes a step after the caller has read (and possibly absorbed
// mass from) next: it rebuilds the sorted union frontier and swaps buffers.
// last marks the batch's final step, whose frontier is only used to clear
// the vectors, so sorting and filtering are skipped.
func (be *BatchEngine) commit(last bool) {
	if be.full {
		// Dense mode keeps no frontier: the buffers just swap, and full asks
		// beginBatch for a wholesale clear.
		be.cur, be.next = be.next, be.cur
		return
	}
	w := be.W
	next := be.next
	switch {
	case last:
		// Raw touched list (a superset of the nonzero nodes) handed over
		// unsorted: it is only used for clearing at the next beginBatch.
	case len(be.nextF)*8 >= be.G.NumNodes():
		// Rebuild with one scan over node blocks, sorted for free.
		front := be.nextF[:0]
		for v := 0; v < be.G.NumNodes(); v++ {
			if anyNonZero(next[v*w : v*w+w]) {
				front = append(front, graph.NodeID(v))
			}
		}
		be.nextF = front
	default:
		// Sorted union frontier keeps the next push's additions in the
		// ascending order a dense sweep uses — the bit-identity property.
		slices.Sort(be.nextF)
		kept := be.nextF[:0]
		for _, v := range be.nextF {
			if anyNonZero(next[int(v)*w : int(v)*w+w]) {
				kept = append(kept, v)
			}
		}
		be.nextF = kept
	}
	be.cur, be.next = be.next, be.cur
	be.curF, be.nextF = be.nextF, be.curF
}

// betaColumnsStart restores the engine-owned score columns used by the
// previous call to all-β and arms per-column touch tracking for aw columns.
func (be *BatchEngine) betaColumnsStart(aw int) [][]float64 {
	n := be.G.NumNodes()
	w := be.W
	b := be.Params.Beta
	if be.out == nil {
		flat := make([]float64, n*w)
		for i := range flat {
			flat[i] = b
		}
		be.out = make([][]float64, w)
		for c := range be.out {
			be.out[c] = flat[c*n : (c+1)*n]
		}
		be.colTouched = make([][]graph.NodeID, w)
		be.colMark = make([]uint32, n*w)
	} else if be.outFull {
		for c := 0; c < be.prevAW; c++ {
			col := be.out[c]
			for i := range col {
				col[i] = b
			}
		}
	} else {
		for c := 0; c < be.prevAW; c++ {
			col := be.out[c]
			for _, v := range be.colTouched[c] {
				col[v] = b
			}
		}
	}
	for c := 0; c < be.prevAW; c++ {
		be.colTouched[c] = be.colTouched[c][:0]
	}
	be.outFull = false
	be.prevAW = aw
	be.ostamp++
	if be.ostamp == 0 {
		clear(be.colMark)
		be.ostamp = 1
	}
	return be.out[:aw]
}

// BackWalkScoresBatch performs a backward walk of the given number of steps
// from every target of qs (Equation 5, generalized to kind) and returns the
// score columns: cols[c][u] = h_steps(u, qs[c]) for every node u, and
// cols[c][qs[c]] = 0 under FirstHit. One walk scores every source at once —
// the backward-processing primitive (§VI-A) — and one CSR traversal per step
// serves all columns. The columns are engine-owned and never cleared
// wholesale: untouched entries already hold β, exactly the score of a source
// that cannot reach its target within the walk, so a short walk from a
// sparse target costs only its frontier. They are valid until the next
// BackWalkScoresBatch call on this engine and must not be modified. len(qs)
// must be in [1, W].
func (be *BatchEngine) BackWalkScoresBatch(kind Kind, qs []graph.NodeID, steps int) [][]float64 {
	return be.BackWalkRowsBatch(kind, qs, steps, nil)
}

// BackWalkRowsBatch is BackWalkScoresBatch for a caller that reads the
// columns at the rows of rs only (nil: every node — the full form). Entries
// at those rows are == the full form's; every other entry is unspecified.
// The restriction is what the kernel saves work on: scores accumulate at the
// rows alone, so no node-major accumulator is swept or transposed, and the
// last two steps gather over rs's hop sets instead of sweeping the graph.
func (be *BatchEngine) BackWalkRowsBatch(kind Kind, qs []graph.NodeID, steps int, rs *ReadSet) [][]float64 {
	aw := len(qs)
	if aw == 0 || aw > be.W {
		panic(fmt.Sprintf("dht: backward batch walk with %d targets, want 1..%d", aw, be.W))
	}
	if rs != nil && (rs.g != be.G || !rs.backward) {
		panic("dht: read set built for another graph or walk direction")
	}
	w := be.W
	sweeps0, frontier0 := be.beginBatch(aw)
	out := be.betaColumnsStart(aw)
	ost, colMark := be.ostamp, be.colMark
	for c, q := range qs {
		be.seed(c, q)
	}
	slices.Sort(be.curF)
	pow := 1.0
	absorb := kind == FirstHit
	for i := 1; i <= steps; i++ {
		if be.frontierEmpty() {
			break // no column can reach its target anymore
		}
		pow *= be.Params.Lambda
		be.push(true, aw, rs.tailAt(steps-i))
		next := be.next
		if be.full && rs == nil {
			// First dense step: move the raw sparse-step sums from the out
			// columns into the node-major accumulator (β-prefill entries
			// start from zero, as a first touch overwrites them); afterwards
			// each step is one sequential pass.
			if !be.outFull {
				be.outFull = true
				if be.acc == nil {
					be.acc = make([]float64, len(be.next))
				}
				acc := be.acc
				for v := 0; v < be.G.NumNodes(); v++ {
					b := v * w
					for c := 0; c < w; c++ {
						m := pow * next[b+c]
						if colMark[b+c] == ost {
							acc[b+c] = out[c][v] + m
						} else {
							acc[b+c] = m
						}
					}
				}
			} else {
				acc := be.acc
				for i, m := range next {
					acc[i] += pow * m
				}
			}
		} else {
			// Accumulate at the step's touched nodes, or at the read rows
			// when those are fewer (after a dense sweep nothing is tracked,
			// and the rows are all there is); either list covers every row
			// a caller reads that the step reached.
			rows := be.nextF
			if rs != nil && (be.full || len(rs.rows) < len(rows)) {
				rows = rs.rows
			}
			for _, v := range rows {
				b := int(v) * w
				for c := 0; c < aw; c++ {
					m := next[b+c]
					if m == 0 {
						// A lane the step did not reach: the dense reference
						// adds +0 (or an underflowed +0) there, whose α·0+β
						// fold equals the β prefill bit for bit — skipping
						// is value-identical.
						continue
					}
					if colMark[b+c] == ost {
						out[c][v] += pow * m
					} else {
						colMark[b+c] = ost
						be.colTouched[c] = append(be.colTouched[c], v)
						out[c][v] = pow * m
					}
				}
			}
		}
		if absorb {
			for c, q := range qs {
				next[int(q)*w+c] = 0 // walkers that reached q stop (Eq. 5)
			}
		}
		be.commit(i == steps)
	}
	a, b := be.Params.Alpha, be.Params.Beta
	if be.outFull {
		// Transpose the node-major accumulator into the out columns while
		// applying the affine fold — one sequential write stream per
		// active column.
		acc := be.acc
		for c := 0; c < aw; c++ {
			col := out[c]
			for v := range col {
				col[v] = a*acc[v*w+c] + b
			}
		}
	} else {
		for c := 0; c < aw; c++ {
			col := out[c]
			for _, v := range be.colTouched[c] {
				col[v] = a*col[v] + b
			}
		}
	}
	if absorb {
		for c, q := range qs {
			if !be.outFull && colMark[int(q)*w+c] != ost {
				colMark[int(q)*w+c] = ost
				be.colTouched[c] = append(be.colTouched[c], q)
			}
			out[c][q] = 0 // h(q,q) = 0 by definition
		}
	}
	be.endBatch(aw, sweeps0, frontier0)
	return out
}

// ForwardProbsBatch advances a batch of forward walks, one per (ps[c],
// qs[c]) pair: row c of the result holds the per-step probabilities of
// column c's walk — first-hit P_i(p, q) under FirstHit (absorbing at q, and
// all-zero for p == q, matching h(v,v) = 0), reach S_i(p, q) under Reach
// (the F-BJ primitive, §V-B). Cost O(steps·frontier edges), at most
// O(steps·|E|). Returned rows are engine-owned, valid until the next
// ForwardProbsBatch call. len(ps) must equal len(qs) and lie in [1, W].
func (be *BatchEngine) ForwardProbsBatch(kind Kind, ps, qs []graph.NodeID, steps int) [][]float64 {
	aw := len(ps)
	if aw != len(qs) {
		panic(fmt.Sprintf("dht: ForwardProbsBatch with %d sources, %d targets", len(ps), len(qs)))
	}
	if aw == 0 || aw > be.W {
		panic(fmt.Sprintf("dht: ForwardProbsBatch with %d pairs, want 1..%d", aw, be.W))
	}
	w := be.W
	probs := be.probsRows(aw, steps)
	sweeps0, frontier0 := be.beginBatch(aw)
	absorb := kind == FirstHit
	for c, p := range ps {
		if !absorb || p != qs[c] { // else no first-hit mass: h(v,v) = 0 by definition
			be.seed(c, p)
		}
	}
	slices.Sort(be.curF)
	for i := 0; i < steps; i++ {
		if be.frontierEmpty() {
			break // all mass absorbed or lost in sinks; P_j = 0 from here
		}
		be.push(false, aw, hopSet{})
		next := be.next
		for c, q := range qs {
			idx := int(q)*w + c
			probs[c][i] = next[idx]
			if absorb {
				next[idx] = 0 // absorb: mass that hit q stops walking
			}
		}
		be.commit(i == steps-1)
	}
	be.endBatch(aw, sweeps0, frontier0)
	return probs
}

// ForwardScore is h_steps(p, q) under kind by one forward walk: lane 0 of
// ForwardProbsBatch, folded by Params.Score. Under FirstHit h(v,v) = 0 by
// definition and nothing is walked.
func (be *BatchEngine) ForwardScore(kind Kind, p, q graph.NodeID, steps int) float64 {
	if kind == FirstHit && p == q {
		return 0
	}
	return be.Params.Score(be.ForwardProbsBatch(kind, []graph.NodeID{p}, []graph.NodeID{q}, steps)[0])
}

// reachProbsBatch advances unabsorbed forward walks from a batch of seed
// sets (the ingredient of the Y⁺ₗ bound, Theorem 1): lane c starts with unit
// mass on every node of seeds[c], and res[c][i-1][ti] = Σ_{p∈seeds[c]}
// S_i(p, targets[c][ti]) for i = 1..steps. rs, when non-nil, is a forward
// read set containing every lane's targets: the walk is read at its rows
// only, so its last two steps, when they would be dense sweeps, gather there
// instead. Allocates the result. len(seeds) must equal len(targets) and lie
// in [1, W].
func (be *BatchEngine) reachProbsBatch(seeds, targets [][]graph.NodeID, steps int, rs *ReadSet) [][][]float64 {
	aw := len(seeds)
	if aw != len(targets) || aw == 0 || aw > be.W {
		panic(fmt.Sprintf("dht: reach walk with %d seed sets and %d target sets, want 1..%d of each", aw, len(targets), be.W))
	}
	if rs != nil && (rs.g != be.G || rs.backward) {
		panic("dht: read set built for another graph or walk direction")
	}
	w := be.W
	res := make([][][]float64, aw)
	for c, ts := range targets {
		res[c] = reachRows(steps, len(ts))
	}
	sweeps0, frontier0 := be.beginBatch(aw)
	for c, ps := range seeds {
		for _, s := range ps {
			be.seed(c, s)
		}
	}
	slices.Sort(be.curF)
	for i := 0; i < steps; i++ {
		if be.frontierEmpty() {
			break // mass all lost in sinks; S_j = 0 from here
		}
		be.push(false, aw, rs.tailAt(steps-1-i))
		next := be.next
		for c, ts := range targets {
			row := res[c][i]
			for ti, t := range ts {
				row[ti] = next[int(t)*w+c]
			}
		}
		be.commit(i == steps-1)
	}
	be.endBatch(aw, sweeps0, frontier0)
	return res
}

// probsRows returns zeroed engine-owned rows, aw × steps.
func (be *BatchEngine) probsRows(aw, steps int) [][]float64 {
	if cap(be.probsFlat) < be.W*steps {
		be.probsFlat = make([]float64, be.W*steps)
		be.probs = make([][]float64, be.W)
	}
	flat := be.probsFlat[:be.W*steps]
	clearVec(flat[:aw*steps])
	rows := be.probs[:aw]
	for c := range rows {
		rows[c] = flat[c*steps : (c+1)*steps]
	}
	return rows
}

// reachRows allocates steps rows of n entries.
func reachRows(steps, n int) [][]float64 {
	res := make([][]float64, steps)
	flat := make([]float64, steps*n)
	for i := range res {
		res[i] = flat[i*n : (i+1)*n]
	}
	return res
}

func clearVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}
