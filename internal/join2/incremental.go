package join2

import (
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// fentry is one F-structure record (§VI-D): the tightest known bounds on
// h_d(p, q) and the walk length l they were computed with. The upper bound is
// stored as the heap priority, the rest here.
type fentry struct {
	lower float64
	l     int
}

// Incremental is the PJ-i join state for one (P, Q) pair: it runs an initial
// top-m B-IDJ while recording every bound observation into the mutable
// priority queue F (keyed by pair, ordered by upper bound), then serves
// getNextNodePair requests by refining only the pairs that contend for the
// next rank — instead of re-running a top-(m+1) join from scratch.
type Incremental struct {
	b       *BIDJ // the initial join; Next refines on its config, walker and bounds
	f       *pqueue.Indexed[Pair, fentry]
	ubound  func(q graph.NodeID, l int) float64
	started bool
	one     [1]graph.NodeID // refine's target set

	// memo caches full-depth score columns by (kind, q, d): the winner path
	// of Next re-walks the same hot target once per emitted pair of that
	// target, and consecutive winners cluster on few targets, so a small
	// LRU absorbs most of those d-step walks. Shorter refinement walks are
	// not cached — they are near-free under the sparse kernel, while a memo
	// hit would still cost an O(|V|) column copy on insert.
	memo *dht.ScoreMemo
}

// NewIncremental validates the config and returns an idle join state; call
// Run to execute the initial top-m join. The state records bound
// observations from the walker's callback and refines one target at a time,
// so it always runs one worker, whatever Config.Workers says.
func NewIncremental(cfg Config, variant BoundVariant) (*Incremental, error) {
	cfg.Workers = 1
	b, err := NewBIDJ(cfg, variant)
	if err != nil {
		return nil, err
	}
	inc := &Incremental{
		b:    b,
		f:    pqueue.NewIndexed[Pair, fentry](),
		memo: cfg.newMemo(),
	}
	b.record = func(pr Pair, lower, upper float64, l int) {
		if old, _, ok := inc.f.Get(pr); ok && old.l >= l {
			return // keep the tighter (longer-walk) bounds
		}
		inc.f.Set(pr, upper, fentry{lower: lower, l: l})
	}
	return inc, nil
}

// Run executes the initial top-m 2-way join (B-IDJ with the configured bound
// variant), populating F, and returns the top-m results. It must be called
// exactly once, before any Next.
func (inc *Incremental) Run(m int) ([]Result, error) {
	if inc.started {
		return nil, fmt.Errorf("join2: Incremental.Run called twice")
	}
	inc.started = true
	// The bound provider is shared with Next; for Y it is built once, here,
	// over the full P and Q.
	inc.ubound = inc.b.ubound()
	res, err := inc.b.TopK(m)
	// The initial join is this state's only batched walk (refinements walk
	// one target): hand the batch engine back rather than sit on it for the
	// stream's lifetime. The solo engine stays, held until Release.
	inc.b.w.releaseBatch()
	if err != nil {
		return nil, err
	}
	// Entries already emitted must not be served again by Next.
	for _, r := range res {
		inc.f.Remove(r.Pair)
	}
	return res, nil
}

// Next returns the next-best pair after everything already emitted, with its
// exact truncated score. ok is false when the candidate space is exhausted.
//
// It repeatedly inspects the entry e1 with the highest upper bound: if e1's
// lower bound already dominates the second-highest upper bound, e1 must be
// the answer and only its exact value is still needed (one d-step walk);
// otherwise e1's target q is refined with a min(2l, d)-step walk, tightening
// every pair of that q at once.
func (inc *Incremental) Next() (Result, bool, error) {
	if !inc.started {
		return Result{}, false, fmt.Errorf("join2: Incremental.Next before Run")
	}
	d := inc.b.cfg.D
	for {
		// Refinement steps are the incremental join's walk rounds; the poll
		// here is what lets a deadline budget truncate a slow pull mid-way.
		if err := inc.b.cfg.canceled(); err != nil {
			return Result{}, false, err
		}
		pr, _, ent, ok := inc.f.Max()
		if !ok {
			return Result{}, false, nil
		}
		second, hasSecond := inc.f.SecondMax()
		if !hasSecond {
			second = math.Inf(-1)
		}
		if ent.l >= d {
			// Exact and holding the highest upper bound: upper == lower ==
			// h_d, so it dominates every other entry's true score.
			inc.f.Remove(pr)
			return Result{Pair: pr, Score: ent.lower}, true, nil
		}
		if ent.lower >= second {
			// Winner decided by bounds; fetch its exact score.
			if err := inc.refine(pr.Q, d); err != nil {
				return Result{}, false, err
			}
			v, _, stillThere := inc.f.Get(pr)
			if !stillThere {
				return Result{}, false, fmt.Errorf("join2: F entry for %v vanished during refinement", pr)
			}
			inc.f.Remove(pr)
			return Result{Pair: pr, Score: v.lower}, true, nil
		}
		// Not separated yet: tighten e1's target.
		next := ent.l * 2
		if next > d {
			next = d
		}
		if err := inc.refine(pr.Q, next); err != nil {
			return Result{}, false, err
		}
	}
}

// refine re-walks q at depth l and tightens every still-pending pair of q,
// reading the column at the nodes of P only. Full-depth walks go through the
// (q, l)-keyed memo.
func (inc *Incremental) refine(q graph.NodeID, l int) error {
	inc.one[0] = q
	return inc.b.w.columns(inc.one[:], l, inc.memo, func(_, _ int, scores []float64) {
		for _, p := range inc.b.cfg.P {
			pr := Pair{P: p, Q: q}
			old, _, ok := inc.f.Get(pr)
			if !ok || old.l >= l {
				continue
			}
			up := scores[p]
			if l < inc.b.cfg.D {
				up += inc.ubound(q, l)
			}
			inc.f.Set(pr, up, fentry{lower: scores[p], l: l})
		}
	})
}

// Pending returns the number of pairs still held in F.
func (inc *Incremental) Pending() int { return inc.f.Len() }

// Release returns the join state's engines to the pool (Config.Pool when
// set). Call it once no further Next pulls are needed.
func (inc *Incremental) Release() { inc.b.Release() }
