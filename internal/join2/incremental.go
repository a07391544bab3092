package join2

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// gone is the walk length recorded for an emitted pair: no walk is longer, so
// every later observation skips the cell as already tighter.
const gone = math.MaxInt32

// Incremental is the PJ-i join state for one (P, Q) pair: it runs an initial
// top-m B-IDJ while recording every bound observation into the F structure of
// §VI-D, then serves getNextNodePair requests by refining only the pairs that
// contend for the next rank — instead of re-running a top-(m+1) join from
// scratch.
//
// F is a dense table over the candidate space: cell pi·|Q| + qi holds the
// tightest known bounds on h_d(P[pi], Q[qi]) and the walk length l they were
// computed with. While Run executes an observation is three array writes and
// nothing is ordered — only a pair's longest observation survives, and no
// order is read before Next. The first Next heapifies the upper bounds of the
// cells not yet emitted, once, into order (which adopts the upper slice);
// from then on refine re-prioritises by cell. A stream never pulled past its
// initial batch builds no heap at all.
type Incremental struct {
	b       *BIDJ     // the initial join; its config holds P and Q free of repeats
	rows    nodeIndex // P[pi] → pi
	cols    nodeIndex // Q[qi] → qi
	lower   []float64
	upper   []float64 // until order adopts it
	l       []int32   // 0: not observed yet; gone: emitted
	order   *pqueue.SlotHeap
	ubound  func(q graph.NodeID, l int) float64
	started bool
	err     error          // a failed Run left F half-filled: every later Next returns it
	targets []graph.NodeID // refine's target set, reused across calls
	at      []int          // targets[i] is Q[at[i]]
}

// nodeIndex finds a node's position in a repeat-free id list by binary search
// over a sorted copy: F's node → row/column lookup, made once per walked
// column and once per emitted pair, without a hash map.
type nodeIndex struct {
	sorted []graph.NodeID
	at     []int32 // sorted[i] is ids[at[i]]
}

// indexNodes returns ids reduced to first occurrences (ids itself when
// nothing repeats, as in every list the serving layer resolves) with its index.
func indexNodes(ids []graph.NodeID) ([]graph.NodeID, nodeIndex) {
	x := nodeIndex{sorted: make([]graph.NodeID, len(ids)), at: make([]int32, len(ids))}
	for i := range x.at {
		x.at[i] = int32(i)
	}
	slices.SortFunc(x.at, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	for i, a := range x.at {
		x.sorted[i] = ids[a]
		if i > 0 && x.sorted[i] == x.sorted[i-1] {
			return indexNodes(graph.NewNodeSet("", ids).Nodes())
		}
	}
	return ids, x
}

func (x nodeIndex) find(id graph.NodeID) int {
	i, _ := slices.BinarySearch(x.sorted, id)
	return int(x.at[i])
}

// NewIncremental validates the config and returns an idle join state; call
// Run to execute the initial top-m join. P and Q are sets: a node listed
// twice is one row or column of F, so no pair can be emitted twice.
func NewIncremental(cfg Config, variant BoundVariant) (*Incremental, error) {
	inc := &Incremental{}
	cfg.P, inc.rows = indexNodes(cfg.P)
	cfg.Q, inc.cols = indexNodes(cfg.Q)
	b, err := NewBIDJ(cfg, variant)
	if err != nil {
		return nil, err
	}
	inc.b = b
	b.record = func(q graph.NodeID, l int, scores []float64, ub float64) {
		inc.observe(inc.cols.find(q), l, scores, ub)
	}
	return inc, nil
}

// Run executes the initial top-m 2-way join (B-IDJ with the configured bound
// variant), populating F, and returns the top-m results. It must be called
// exactly once, before any Next; when it fails, so does every later Next.
func (inc *Incremental) Run(m int) ([]Result, error) {
	if inc.started {
		return nil, fmt.Errorf("join2: Incremental.Run called twice")
	}
	inc.started = true
	n := inc.b.cfg.MaxPairs()
	inc.lower, inc.upper, inc.l = make([]float64, n), make([]float64, n), make([]int32, n)
	// The bound provider is shared with Next; for Y it is built once, here,
	// over the full P and Q (or was handed in with the config).
	ubound, err := inc.b.ubound()
	var res []Result
	if err == nil {
		inc.ubound = ubound
		res, err = inc.b.TopK(m)
	}
	// Most streams are never pulled past their initial batch, so hand the
	// batch engine back rather than sit on it. The width-1 engine stays; the
	// first full-depth refinement checks a batch engine out again, and from
	// then on both are held until Release.
	inc.b.w.releaseBatch()
	if err != nil {
		inc.err = err
		return nil, err
	}
	// Entries already emitted must not be served again by Next.
	for _, r := range res {
		inc.l[inc.rows.find(r.Pair.P)*len(inc.b.cfg.Q)+inc.cols.find(r.Pair.Q)] = gone
	}
	return res, nil
}

// observe folds the column h_l(·, Q[qi]) into F: every cell of the column
// whose bounds come from a shorter walk takes lower = h_l(p, q) and upper =
// lower + ub, where ub = U⁺ₗ(q) (0 at l = d: the score is exact).
func (inc *Incremental) observe(qi, l int, scores []float64, ub float64) {
	s, nq := qi, len(inc.b.cfg.Q)
	for _, p := range inc.b.cfg.P {
		if int(inc.l[s]) < l {
			inc.lower[s], inc.l[s] = scores[p], int32(l)
			if inc.order == nil {
				inc.upper[s] = scores[p] + ub
			} else {
				inc.order.Set(int32(s), scores[p]+ub)
			}
		}
		s += nq
	}
}

// pair is the candidate pair of cell s.
func (inc *Incremental) pair(s int32) Pair {
	nq := int32(len(inc.b.cfg.Q))
	return Pair{P: inc.b.cfg.P[s/nq], Q: inc.b.cfg.Q[s%nq]}
}

// Next returns the next-best pair after everything already emitted, with its
// exact truncated score. ok is false when the candidate space is exhausted.
//
// It repeatedly inspects the cell e1 that leads F's order — upper bound
// descending, canonical pair key ascending among equal bounds. An exact e1
// (l = d, upper == lower == h_d) dominates every other cell's true score and
// precedes every cell that could still tie with it, so it is the answer: the
// emitted sequence is ordered by (score descending, TieKey ascending) like
// every one-shot ranking. Otherwise, if e1's lower bound already dominates
// the second-highest upper bound only its exact value is missing (one d-step
// walk of its target q, after which the loop looks again — a tied cell with a
// smaller key may lead now); if not, q is refined with a min(2l, d)-step
// walk. Either walk tightens every pair of that q at once, and a d-step walk
// takes the targets of the next contending cells along (see refine).
func (inc *Incremental) Next() (Result, bool, error) {
	if !inc.started {
		return Result{}, false, fmt.Errorf("join2: Incremental.Next before Run")
	}
	if inc.err != nil {
		return Result{}, false, inc.err
	}
	if inc.order == nil {
		inc.order = pqueue.NewSlotHeap(func(s int32) int64 { return pairTie(inc.pair(s)) })
		inc.order.Build(inc.upper, func(s int32) bool { return inc.l[s] != gone })
		inc.upper = nil
	}
	d := inc.b.cfg.D
	for {
		// Refinement steps are the incremental join's walk rounds; the poll
		// here is what lets a deadline budget truncate a slow pull mid-way.
		if err := inc.b.cfg.canceled(); err != nil {
			return Result{}, false, err
		}
		s, _, ok := inc.order.Max()
		if !ok {
			return Result{}, false, nil
		}
		if int(inc.l[s]) >= d {
			inc.order.Remove(s)
			inc.l[s] = gone
			return Result{Pair: inc.pair(s), Score: inc.lower[s]}, true, nil
		}
		next := d
		if second, ok := inc.order.SecondMax(); ok && inc.lower[s] < second {
			next = min(2*int(inc.l[s]), d) // not separated yet
		}
		if err := inc.refine(s, next); err != nil {
			return Result{}, false, err
		}
	}
}

// refine walks the target of the leading cell s at depth l and tightens every
// still-pending pair of each walked target, reading the columns at the nodes
// of P only. A walk shorter than d is that one target. A d-step walk also
// takes the distinct targets of the cells that follow s in F's order and are
// not exact yet, up to the batch engine's width W (found among the first 4W
// cells), and walks them as one rows-form batch: the loop in Next would walk
// most of them to d within the next few pulls anyway. Each column is == its
// lone walk and observe keeps a cell's longest observation, so which targets
// ride along changes the work done, never the emitted sequence.
func (inc *Incremental) refine(s int32, l int) error {
	c := &inc.b.cfg
	nq := len(c.Q)
	qi := int(s) % nq
	inc.targets, inc.at = append(inc.targets[:0], c.Q[qi]), append(inc.at[:0], qi)
	ub := 0.0
	if l < c.D {
		ub = inc.ubound(c.Q[qi], l)
	} else {
		width := inc.b.w.batch().W
		inc.order.Leading(4*width, func(cell int32) bool {
			if ci := int(cell) % nq; int(inc.l[cell]) < l && !slices.Contains(inc.at, ci) {
				inc.targets, inc.at = append(inc.targets, c.Q[ci]), append(inc.at, ci)
			}
			return len(inc.targets) < width
		})
	}
	return inc.b.w.columns(inc.targets, l, func(i int, scores []float64) {
		inc.observe(inc.at[i], l, scores, ub)
	})
}

// Release returns the join state's engines to the pool (Config.Pool when
// set). Call it once no further Next pulls are needed.
func (inc *Incremental) Release() { inc.b.Release() }
