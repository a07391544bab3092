package join2

import (
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// CertifiedJoin runs a 2-way join on the FastCertified kernel and certifies
// the result back to the bit-identical contract, so its emitted ranking is
// ==-identical to every other joiner's while the bulk of the walk work runs
// on float32 parallel sweeps. It is the execution side of the planner's
// accuracy knob: "fast" never means "approximate results", it means
// "approximate scores plus a proof obligation".
//
// The protocol has three phases:
//
//  1. Fast pass. Score every pair on the fast kernel — backward batched
//     columns (the B-BJ shape, one walk per target) or forward batched
//     per-pair walks (the F-BJ shape), per the variant. Each score ŝ
//     carries the kernel's conservative bound ε: |ŝ − s| ≤ ε.
//  2. Certification cut. Let t̂ be the k-th largest fast score. Any pair
//     whose true score reaches the true k-th must satisfy ŝ ≥ t̂ − 2ε
//     (its true score s ≥ s_k ≥ t̂ − ε, so ŝ ≥ s − ε ≥ t̂ − 2ε). The band
//     C = {ŝ ≥ t̂ − 2ε} is therefore a superset of the true top-k,
//     including exact ties at the cut; every pair outside C is certified
//     out by its score gap alone and is never touched again.
//  3. Exact re-verification. Every band pair is re-scored through the
//     bit-identical batch kernel (grouped by target, one backward column
//     per distinct q), and the final top-k heap is built from those exact
//     scores with the canonical tie key. Emitted pairs, scores, and order
//     are thus exactly the reference ranking — the fast pass only decided
//     which pairs were worth exact arithmetic.
//
// Certification bookkeeping flows into Config.Counters via Certify:
// KernelPicks (fast passes run), Reverified (band size), and FallbackPairs
// (band excess over k — the pairs the fast scores alone could not
// certify). At k = |P|·|Q| the band is necessarily everything and the run
// degenerates to a fast pre-pass plus a full exact B-BJ; the planner's cost
// model prices that and steers to plain B-BJ instead.
//
// Memory: the fast pass materializes all |P|·|Q| approximate scores (the
// same order of space the full ranking itself would take), which is the
// price of cutting once globally instead of per target.
type CertifiedJoin struct {
	cfg     Config
	forward bool // fast-pass shape: forward per-pair walks instead of backward columns
	fe      *dht.FastBatchEngine
	w       *walker // exact re-verification; its pool also supplies fe
	memo    *dht.ScoreMemo

	// scratch reused across TopK calls
	approx  []float64 // pi-major |P|·|Q| fast scores
	pending []graph.NodeID
	pis     [][]int32 // per-target band members, indexed like pending
}

// NewCertifiedBBJ returns the backward-shaped certified joiner ("B-BJ-fast"):
// the fast pass is one backward column per target, the factor-|P| win of
// backward processing on the fast kernel.
func NewCertifiedBBJ(cfg Config) (*CertifiedJoin, error) {
	return newCertified(cfg, false)
}

// NewCertifiedFBJ returns the forward-shaped certified joiner ("F-BJ-fast"):
// the fast pass walks each pair forward, batched at the fast kernel's
// width. Only competitive when |P|·|Q| is small; the planner prices it.
func NewCertifiedFBJ(cfg Config) (*CertifiedJoin, error) {
	return newCertified(cfg, true)
}

func newCertified(cfg Config, forward bool) (*CertifiedJoin, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	j := &CertifiedJoin{cfg: cfg, forward: forward, memo: cfg.newMemo()}
	j.w = newWalker(&j.cfg)
	return j, nil
}

// Name implements Joiner.
func (j *CertifiedJoin) Name() string {
	if j.forward {
		return "F-BJ-fast"
	}
	return "B-BJ-fast"
}

// MaxPairs returns |P|·|Q|, the size of the join's candidate space.
func (j *CertifiedJoin) MaxPairs() int { return j.cfg.MaxPairs() }

// Release returns the joiner's held engines to the pool (Config.Pool when
// set).
func (j *CertifiedJoin) Release() {
	j.w.release()
	j.w.pool.PutFast(j.fe)
	j.fe = nil
}

// AllPairs evaluates every pair and returns the full descending ranking.
func (j *CertifiedJoin) AllPairs() ([]Result, error) {
	return j.TopK(j.cfg.MaxPairs())
}

// TopK implements Joiner: the certified fast-path protocol described on the
// type. The returned ranking is ==-identical to BBJ/FBJ/B-IDJ-Y's.
func (j *CertifiedJoin) TopK(k int) ([]Result, error) {
	k, err := j.cfg.clampK(k)
	if err != nil {
		return nil, err
	}
	if j.fe == nil {
		// The bit-identical joiners never see a fast engine — the pool's
		// contract validation enforces the same separation on reuse.
		j.fe = j.w.pool.GetFast()
		j.fe.Workers = j.cfg.Workers
		if j.cfg.Counters != nil {
			j.fe.Sink = j.cfg.Counters
		}
	}
	lenQ := len(j.cfg.Q)
	if need := len(j.cfg.P) * lenQ; cap(j.approx) < need {
		j.approx = make([]float64, need)
	}
	approx := j.approx[:len(j.cfg.P)*lenQ]

	// Phase 1: fast pass. Fill the pi-major score matrix and track the k-th
	// largest fast score. Ties are irrelevant here — only the k-th *value*
	// matters, and the band cut below keeps every tied candidate anyway.
	cutTop := pqueue.NewTopK[struct{}](k)
	if j.forward {
		err = j.fastForwardPass(approx, cutTop)
	} else {
		err = j.fastBackwardPass(approx, cutTop)
	}
	if err != nil {
		return nil, err
	}
	that, ok := cutTop.Threshold()
	if !ok {
		// clampK guarantees k ≤ |P|·|Q| and the pass scored every pair.
		panic("join2: certified fast pass under-filled the cut heap")
	}
	cut := that - 2*j.fe.ScoreBound()

	// Phase 2: certification cut — collect the ε-band, grouped by target so
	// phase 3 walks each distinct q's exact column once. pending[bi] is the
	// bi-th target with band members, pis[bi] their P indices.
	j.pending = j.pending[:0]
	j.pis = j.pis[:0]
	band := 0
	for qi, q := range j.cfg.Q {
		var pis []int32
		if n := len(j.pis); n < cap(j.pis) {
			pis = j.pis[:n+1][n][:0] // reuse the previous run's slot capacity
		}
		for pi := range j.cfg.P {
			if approx[pi*lenQ+qi] >= cut {
				pis = append(pis, int32(pi))
			}
		}
		if len(pis) == 0 {
			continue
		}
		band += len(pis)
		j.pending = append(j.pending, q)
		j.pis = append(j.pis, pis)
	}

	// Phase 3: exact re-verification of the band through the bit-identical
	// kernel, one backward column per distinct band target, read at band
	// members — nodes of P — only.
	tops := newPartials[Pair](k, j.cfg.workerCount(len(j.pending)))
	if err := j.w.columns(j.pending, j.cfg.D, j.memo, func(wi, bi int, scores []float64) {
		q := j.pending[bi]
		for _, pi := range j.pis[bi] {
			pr := Pair{j.cfg.P[pi], q}
			tops[wi].AddTie(pr, scores[pr.P], pairTie(pr))
		}
	}); err != nil {
		return nil, err
	}

	if j.cfg.Counters != nil {
		fallback := int64(band - k)
		if fallback < 0 {
			fallback = 0
		}
		j.cfg.Counters.Certify(1, int64(band), fallback)
	}
	return collect(mergePartials(tops, k, pairTie)), nil
}

// fastBackwardPass fills approx with one fast backward column per target:
// approx[pi·|Q|+qi] = ĥ_d(P[pi], Q[qi]).
func (j *CertifiedJoin) fastBackwardPass(approx []float64, cutTop *pqueue.TopK[struct{}]) error {
	fw := j.fe.W
	lenQ := len(j.cfg.Q)
	for base := 0; base < lenQ; base += fw {
		if err := j.cfg.canceled(); err != nil {
			return err
		}
		end := min(base+fw, lenQ)
		chunk := j.cfg.Q[base:end]
		cols := j.fe.BackWalkScoresBatch(j.cfg.Measure, chunk, j.cfg.D)
		for ci := range chunk {
			col := cols[ci]
			qi := base + ci
			for pi, p := range j.cfg.P {
				s := col[p]
				approx[pi*lenQ+qi] = s
				cutTop.Add(struct{}{}, s)
			}
		}
	}
	return nil
}

// fastForwardPass fills approx with one fast forward walk per pair, batched
// at the fast kernel's width.
func (j *CertifiedJoin) fastForwardPass(approx []float64, cutTop *pqueue.TopK[struct{}]) error {
	fw := j.fe.W
	lenQ := len(j.cfg.Q)
	ps := make([]graph.NodeID, 0, fw)
	qs := make([]graph.NodeID, 0, fw)
	idx := make([]int, 0, fw)
	flush := func() error {
		if len(ps) == 0 {
			return nil
		}
		if err := j.cfg.canceled(); err != nil {
			return err
		}
		rows := j.fe.ForwardProbsBatch(j.cfg.Measure, ps, qs, j.cfg.D)
		for c := range ps {
			s := 0.0
			if !(j.cfg.Measure == dht.FirstHit && ps[c] == qs[c]) {
				s = j.cfg.Params.Score(rows[c])
			}
			approx[idx[c]] = s
			cutTop.Add(struct{}{}, s)
		}
		ps, qs, idx = ps[:0], qs[:0], idx[:0]
		return nil
	}
	for pi, p := range j.cfg.P {
		for qi, q := range j.cfg.Q {
			ps = append(ps, p)
			qs = append(qs, q)
			idx = append(idx, pi*lenQ+qi)
			if len(ps) == fw {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}
