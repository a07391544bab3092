package join2

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// BoundVariant selects the upper-bound function U⁺ₗ of the B-IDJ framework
// (§VI-C).
type BoundVariant int

const (
	// BoundX uses X⁺ₗ = α·λ^(l+1)/(1−λ) (Lemma 2): graph-independent, O(1),
	// but loose — it assumes a walker could hit q with probability 1 at every
	// remaining step.
	BoundX BoundVariant = iota
	// BoundY uses Y⁺ₗ(P, q) (Theorem 1): per-target reach probabilities make
	// it tighter (Lemma 5: Y⁺ₗ ≤ X⁺ₗ) at the cost of one extra O(d·|E|)
	// precomputation walk.
	BoundY
)

// String names the variant as in the paper.
func (v BoundVariant) String() string {
	if v == BoundY {
		return "Y"
	}
	return "X"
}

// IterStat records one deepening round of B-IDJ for analysis (Figure 10(b)).
type IterStat struct {
	L           int // walk length this round
	AliveBefore int // |Q| candidates entering the round
	Pruned      int // candidates discarded by the bound test
}

// BIDJ is the Backward Iterative Deepening Join (Algorithm 2). Each round
// performs an l-step backward walk per surviving q ∈ Q (l = 1, 2, 4, …),
// maintains the top-k lower bounds B, and prunes q when
// max_p h_l(p,q) + U⁺ₗ < T_k. A final d-step walk scores the survivors
// exactly. Complexity O(|Q|·d·|E|) worst case, far less when pruning bites —
// and with the sparse walk kernel the early short-walk rounds cost only the
// frontier edges they actually touch. Every round reads its columns at the
// nodes of P only, so every round walks the kernel's rows form (see
// walker.columns).
//
// The joiner caches its engines and the Y⁺ₗ table (in its Config.YBound, which
// an n-way caller may have filled beforehand) across TopK calls (the PJ
// re-join stream calls TopK repeatedly), so a BIDJ is single-goroutine.
type BIDJ struct {
	cfg     Config
	variant BoundVariant
	w       *walker

	// LinearSchedule advances the deepening walk length by +1 per round
	// instead of doubling it. Exists for the schedule ablation bench; the
	// paper (and the default) use l = 1, 2, 4, ….
	LinearSchedule bool

	// Stats describes the most recent TopK run.
	Stats []IterStat

	// record, when non-nil, receives every walked column of every round —
	// target q, walk length l, the column (valid at the nodes of P, within
	// the call) and ub = U⁺ₗ(q), 0 in the exact final round — so one call
	// carries the bounds h_l(p, q) ≤ h_d(p, q) ≤ h_l(p, q) + ub of every p;
	// the incremental join populates its F structure from it.
	record func(q graph.NodeID, l int, scores []float64, ub float64)
}

// NewBIDJ validates the config and returns the joiner with the given bound
// variant.
func NewBIDJ(cfg Config, variant BoundVariant) (*BIDJ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &BIDJ{cfg: cfg, variant: variant}
	b.w = newWalker(&b.cfg)
	return b, nil
}

// NewBIDJX returns the B-IDJ-X joiner.
func NewBIDJX(cfg Config) (*BIDJ, error) { return NewBIDJ(cfg, BoundX) }

// NewBIDJY returns the B-IDJ-Y joiner.
func NewBIDJY(cfg Config) (*BIDJ, error) { return NewBIDJ(cfg, BoundY) }

// Name implements Joiner.
func (b *BIDJ) Name() string { return "B-IDJ-" + b.variant.String() }

// Release returns the joiner's held engines to the pool (Config.Pool when
// set), so a serving layer that constructs joiners per request recycles
// their O(|V|) scratch. The joiner stays usable — engines are re-checked out
// lazily — but the idiomatic pattern is Release after the last TopK. The
// Y⁺ₗ table is retained: it depends only on (P, Q, d) and is the joiner's to
// keep.
func (b *BIDJ) Release() { b.w.release() }

// ubound returns the U⁺ₗ provider. For Y it is Config.YBound, built on first
// use when the config did not bring one — one serial O(d·|E|) walk from all
// of P simultaneously. The table only depends on P, Q, and d — not on which
// q's remain alive — so one build serves every TopK call of the joiner's
// lifetime.
func (b *BIDJ) ubound() (func(q graph.NodeID, l int) float64, error) {
	if b.variant == BoundX {
		return func(_ graph.NodeID, l int) float64 { return b.cfg.Params.XBound(l) }, nil
	}
	if b.cfg.YBound == nil {
		ts, err := b.w.tables([][]graph.NodeID{b.cfg.P}, [][]graph.NodeID{b.cfg.Q})
		if err != nil {
			return nil, err
		}
		b.cfg.YBound = ts[0]
	}
	return b.cfg.YBound.Bound, nil
}

// advance is the deepening schedule: doubling by default, +1 for the
// ablation.
func (b *BIDJ) advance(l int) int {
	if b.LinearSchedule {
		return l + 1
	}
	return l * 2
}

// TopK implements Joiner: Algorithm 2, with one heap of candidate lower
// bounds per round, whose k-th largest is the round's threshold T_k, and
// ties in the final heap broken by the canonical pair key. The cancellation
// hook is polled once per deepening round (and by the walker per chunk), so
// a budgeted or disconnected request stops early instead of walking to d.
func (b *BIDJ) TopK(k int) ([]Result, error) {
	k, err := b.cfg.clampK(k)
	if err != nil {
		return nil, err
	}
	d := b.cfg.D
	b.Stats = b.Stats[:0]
	ubound, err := b.ubound()
	if err != nil {
		return nil, err
	}

	alive := make([]graph.NodeID, len(b.cfg.Q))
	copy(alive, b.cfg.Q)
	beta := b.cfg.Params.Beta

	lower := pqueue.NewTopK[struct{}](k)
	for l := 1; l < d; l = b.advance(l) {
		if err := b.cfg.canceled(); err != nil {
			return nil, err
		}
		lower.Reset()
		qUpper := make([]float64, len(alive))
		if err := b.w.columns(alive, l, func(qi int, scores []float64) {
			q := alive[qi]
			pMax := math.Inf(-1)
			for _, p := range b.cfg.P {
				s := scores[p]
				if s > beta || p == q { // p==q is exact: h(v,v)=0
					lower.Add(struct{}{}, s)
				}
				if s > pMax {
					pMax = s
				}
			}
			ub := ubound(q, l)
			qUpper[qi] = pMax + ub
			if b.record != nil {
				b.record(q, l, scores, ub)
			}
		}); err != nil {
			return nil, err
		}
		alive = b.prune(alive, qUpper, lower, l)
	}

	// Final exact round over the survivors.
	if err := b.cfg.canceled(); err != nil {
		return nil, err
	}
	top := pqueue.NewTopK[Pair](k)
	if err := b.w.columns(alive, d, func(qi int, scores []float64) {
		q := alive[qi]
		addColumn(top, b.cfg.P, q, scores)
		if b.record != nil {
			b.record(q, d, scores, 0)
		}
	}); err != nil {
		return nil, err
	}
	return collect(top), nil
}

// prune applies the round's bound test, appends the IterStat, and returns
// the surviving targets (filtered in place).
func (b *BIDJ) prune(alive []graph.NodeID, qUpper []float64, lower *pqueue.TopK[struct{}], l int) []graph.NodeID {
	st := IterStat{L: l, AliveBefore: len(alive)}
	if tk, full := lower.MinScore(); full {
		kept := alive[:0]
		for qi, q := range alive {
			if qUpper[qi] < tk {
				st.Pruned++
				continue
			}
			kept = append(kept, q)
		}
		alive = kept
	}
	b.Stats = append(b.Stats, st)
	return alive
}

// PrunedFractionPerIter reports, for the latest TopK run, the cumulative
// fraction of Q discarded after each deepening round — the series plotted in
// Figure 10(b).
func (b *BIDJ) PrunedFractionPerIter() []float64 {
	out := make([]float64, len(b.Stats))
	total := 0
	if len(b.Stats) > 0 {
		total = b.Stats[0].AliveBefore
	}
	cum := 0
	for i, st := range b.Stats {
		cum += st.Pruned
		if total > 0 {
			out[i] = float64(cum) / float64(total)
		}
	}
	return out
}
