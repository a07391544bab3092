package join2

import (
	"math"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// FIDJ is the forward Iterative Deepening Join (§V-B), the adaptation of the
// IDJ framework of Sun et al. (VLDB'11) to DHT. It runs ⌈log d⌉ rounds with
// walk length l = 2^(j-1): short walks are cheap and already give usable
// bounds (h_l is a lower bound of h_d; h_l + X⁺ₗ an upper bound), so many
// source nodes p ∈ P are pruned before the expensive full-depth walks of the
// final round. Worst case remains O(|P|·|Q|·d·|E|). The walker batches each
// source's |Q| forward walks in the deep rounds.
type FIDJ struct {
	cfg Config
	w   *walker

	// scratch: the repeated-source column and one row of scores
	ps       []graph.NodeID
	scoreBuf []float64

	// PrunedPerRound records, for each deepening round, how many nodes of P
	// were discarded. Populated by TopK; used by ablation reports.
	PrunedPerRound []int
}

// NewFIDJ validates the config and returns the joiner.
func NewFIDJ(cfg Config) (*FIDJ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &FIDJ{cfg: cfg}
	f.w = newWalker(&f.cfg)
	return f, nil
}

// Name implements Joiner.
func (f *FIDJ) Name() string { return "F-IDJ" }

// Release returns the joiner's held engines to the pool (Config.Pool when
// set).
func (f *FIDJ) Release() { f.w.release() }

// scoresForSource fills and returns a row with the forward truncated scores
// h_l(p, q) for every q ∈ Q. The row is owned by the joiner and valid until
// the next call.
func (f *FIDJ) scoresForSource(p graph.NodeID, l int) ([]float64, error) {
	qs := f.cfg.Q
	if f.scoreBuf == nil {
		f.scoreBuf = make([]float64, len(qs))
		f.ps = make([]graph.NodeID, len(qs))
	}
	for i := range f.ps {
		f.ps[i] = p
	}
	scores := f.scoreBuf
	err := f.w.pairScores(f.ps, qs, l, func(i int, score float64) { scores[i] = score })
	return scores, err
}

// TopK implements Joiner.
func (f *FIDJ) TopK(k int) ([]Result, error) {
	k, err := f.cfg.clampK(k)
	if err != nil {
		return nil, err
	}
	d := f.cfg.D
	f.PrunedPerRound = f.PrunedPerRound[:0]

	alive := make([]bool, len(f.cfg.P))
	for i := range alive {
		alive[i] = true
	}
	// Deepening rounds j = 1 .. ⌈log d⌉−1 with l = 2^(j-1) < d.
	for l := 1; l < d; l *= 2 {
		lower := pqueue.NewTopK[struct{}](k)
		upper := make([]float64, len(f.cfg.P)) // h⁺_d(p, Q) per alive p
		x := f.cfg.Params.XBound(l)
		for pi, p := range f.cfg.P {
			if !alive[pi] {
				continue
			}
			// Each source's |Q| walks at depth l form one walk round; poll so
			// deadline budgets can abort a round mid-deepening.
			if err := f.cfg.canceled(); err != nil {
				return nil, err
			}
			scores, err := f.scoresForSource(p, l)
			if err != nil {
				return nil, err
			}
			best := math.Inf(-1)
			for _, hl := range scores {
				lower.Add(struct{}{}, hl)
				if hl > best {
					best = hl
				}
			}
			upper[pi] = best + x
		}
		pruned := 0
		if tk, full := lower.MinScore(); full {
			for pi := range f.cfg.P {
				if alive[pi] && upper[pi] < tk {
					alive[pi] = false
					pruned++
				}
			}
		}
		f.PrunedPerRound = append(f.PrunedPerRound, pruned)
	}
	// Final round: exact h_d for surviving pairs.
	top := pqueue.NewTopK[Pair](k)
	for pi, p := range f.cfg.P {
		if !alive[pi] {
			continue
		}
		if err := f.cfg.canceled(); err != nil {
			return nil, err
		}
		scores, err := f.scoresForSource(p, d)
		if err != nil {
			return nil, err
		}
		for qi, q := range f.cfg.Q {
			pr := Pair{p, q}
			top.AddTie(pr, scores[qi], pairTie(pr))
		}
	}
	return collect(top), nil
}
