package join2

import (
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// maxTableTargets is the largest |Q| for which a B-BJ joiner keeps the
// scores its first TopK walked. Each kept target costs |P| float64s, at most
// the O(|V|) column a walk produces, so the table stays within 256 columns.
const maxTableTargets = 256

// BBJ is the Backward Basic Join (§VI-A): one d-step backward walk per q ∈ Q
// yields h_d(p, q) for every p at once, so the complexity is O(|Q|·d·|E|) —
// a factor |P| better than F-BJ. Columns are read at the nodes of P only, so
// the batched walks take the kernel's rows form. The PJ re-join stream calls
// TopK again with a larger k on the same joiner; the first TopK therefore
// keeps every h_d(p, q) in a dense |P|·|Q| table (when |Q| ≤
// maxTableTargets), and later calls select from it without walking. Engines
// and their O(|V|) scratch are reused across TopK calls, so a joiner is
// single-goroutine like the engines it owns.
type BBJ struct {
	cfg Config
	w   *walker

	// table holds h_d(P[pi], Q[qi]) at qi·|P| + pi once a TopK has walked
	// every target; nil before that, and always when |Q| > maxTableTargets.
	table []float64
}

// NewBBJ validates the config and returns the joiner.
func NewBBJ(cfg Config) (*BBJ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &BBJ{cfg: cfg}
	b.w = newWalker(&b.cfg)
	return b, nil
}

// Name implements Joiner.
func (b *BBJ) Name() string { return "B-BJ" }

// Release returns the joiner's held engines to the pool (Config.Pool when
// set). The score table is kept: a later TopK needs no engine.
func (b *BBJ) Release() { b.w.release() }

// TopK implements Joiner.
func (b *BBJ) TopK(k int) ([]Result, error) {
	k, err := b.cfg.clampK(k)
	if err != nil {
		return nil, err
	}
	ps, qs := b.cfg.P, b.cfg.Q
	if b.table != nil {
		top := pqueue.NewTopK[Pair](k)
		for qi, q := range qs {
			row := b.table[qi*len(ps):]
			for pi, p := range ps {
				pr := Pair{p, q}
				top.AddTie(pr, row[pi], pairTie(pr))
			}
		}
		return collect(top), nil
	}
	var table []float64
	if len(qs) <= maxTableTargets {
		table = make([]float64, len(ps)*len(qs))
	}
	tops := newPartials[Pair](k, b.cfg.workerCount(len(qs)))
	if err := b.w.columns(qs, b.cfg.D, func(wi, qi int, scores []float64) {
		addColumn(tops[wi], ps, qs[qi], scores)
		if table != nil {
			row := table[qi*len(ps):]
			for pi, p := range ps {
				row[pi] = scores[p]
			}
		}
	}); err != nil {
		return nil, err
	}
	b.table = table
	return collect(mergePartials(tops, k, pairTie)), nil
}

// AllPairs evaluates every pair and returns the full descending ranking.
func (b *BBJ) AllPairs() ([]Result, error) {
	return b.TopK(b.cfg.MaxPairs())
}

// addColumn offers every pair (p, q), p ∈ ps, with its score from q's
// backward column. scores[q] is 0 by definition (h(v,v) = 0), so pairs with
// p == q participate with score 0, matching the forward algorithms. The
// canonical tie key makes the selection independent of the order targets
// arrive in, so workers racing each other cannot change the result.
func addColumn(top *pqueue.TopK[Pair], ps []graph.NodeID, q graph.NodeID, scores []float64) {
	for _, p := range ps {
		pr := Pair{p, q}
		top.AddTie(pr, scores[p], pairTie(pr))
	}
}
