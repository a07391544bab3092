package join2

import (
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// BBJ is the Backward Basic Join (§VI-A): one d-step backward walk per q ∈ Q
// yields h_d(p, q) for every p at once, so the complexity is O(|Q|·d·|E|) —
// a factor |P| better than F-BJ. The walks go through the walker behind a
// small (q, l)-keyed memo that serves repeated TopK calls on the same
// joiner — the PJ re-join stream — without re-walking recently seen targets,
// at any Config.Workers. Columns are read at the nodes of P only, so a target
// set too large for the memo (nothing is published) walks the kernel's rows
// form. Engines and their O(|V|) scratch are reused across TopK calls, so a
// joiner is single-goroutine like the engines it owns.
type BBJ struct {
	cfg  Config
	w    *walker
	memo *dht.ScoreMemo
}

// NewBBJ validates the config and returns the joiner.
func NewBBJ(cfg Config) (*BBJ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &BBJ{cfg: cfg, memo: cfg.newMemo()}
	b.w = newWalker(&b.cfg)
	return b, nil
}

// Name implements Joiner.
func (b *BBJ) Name() string { return "B-BJ" }

// Release returns the joiner's held engines to the pool (Config.Pool when
// set). The memo is untouched — a caller-owned memo outlives the joiner by
// design, and a joiner-built one is garbage.
func (b *BBJ) Release() { b.w.release() }

// TopK implements Joiner.
func (b *BBJ) TopK(k int) ([]Result, error) {
	k, err := b.cfg.clampK(k)
	if err != nil {
		return nil, err
	}
	tops := newPartials[Pair](k, b.cfg.workerCount(len(b.cfg.Q)))
	if err := b.w.columns(b.cfg.Q, b.cfg.D, b.memo, func(wi, qi int, scores []float64) {
		addColumn(tops[wi], b.cfg.P, b.cfg.Q[qi], scores)
	}); err != nil {
		return nil, err
	}
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
// arrive in, so memo hits served first and workers racing each other cannot
// change the result.
func addColumn(top *pqueue.TopK[Pair], ps []graph.NodeID, q graph.NodeID, scores []float64) {
	for _, p := range ps {
		pr := Pair{p, q}
		top.AddTie(pr, scores[p], pairTie(pr))
	}
}
