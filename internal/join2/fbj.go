package join2

import (
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// FBJ is the Forward Basic Join (§V-B): it evaluates h_d(p, q) for every pair
// with a per-pair forward absorbing walk and keeps the k best. Complexity
// O(|P|·|Q|·d·|E|) — the baseline every other algorithm is measured against.
// The walker batches the per-pair walks, which amortizes the dominant
// full-depth sweeps without changing a bit of any score. The joiner reuses
// its engines across TopK calls, so it is single-goroutine.
type FBJ struct {
	cfg Config
	w   *walker

	// ps[i], qs[i] is the i-th pair of P×Q, P-major; built on first TopK
	ps, qs []graph.NodeID
}

// NewFBJ validates the config and returns the joiner.
func NewFBJ(cfg Config) (*FBJ, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &FBJ{cfg: cfg}
	f.w = newWalker(&f.cfg)
	return f, nil
}

// Name implements Joiner.
func (f *FBJ) Name() string { return "F-BJ" }

// Release returns the joiner's held engines to the pool (Config.Pool when
// set).
func (f *FBJ) Release() { f.w.release() }

// TopK implements Joiner.
func (f *FBJ) TopK(k int) ([]Result, error) {
	k, err := f.cfg.clampK(k)
	if err != nil {
		return nil, err
	}
	if f.ps == nil {
		for _, p := range f.cfg.P {
			for _, q := range f.cfg.Q {
				f.ps = append(f.ps, p)
				f.qs = append(f.qs, q)
			}
		}
	}
	top := pqueue.NewTopK[Pair](k)
	if err := f.w.pairScores(f.ps, f.qs, f.cfg.D, func(i int, score float64) {
		pr := Pair{f.ps[i], f.qs[i]}
		top.AddTie(pr, score, pairTie(pr))
	}); err != nil {
		return nil, err
	}
	return collect(top), nil
}

// AllPairs evaluates every pair and returns the full descending ranking. The
// AP multi-way algorithm uses this to materialize its per-edge lists.
func (f *FBJ) AllPairs() ([]Result, error) {
	return f.TopK(f.cfg.MaxPairs())
}

// collect drains a TopK into the Result slice ordered by descending score.
func collect(top *pqueue.TopK[Pair]) []Result {
	pairs, scores := top.Sorted()
	out := make([]Result, len(pairs))
	for i := range pairs {
		out[i] = Result{Pair: pairs[i], Score: scores[i]}
	}
	return out
}
