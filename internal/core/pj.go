package core

import (
	"fmt"

	"repro/internal/join2"
)

// PJ is the Partial Join algorithm (Algorithm 1): a top-m 2-way join per
// query edge (B-IDJ-Y by default), a PBRJ rank join over the resulting
// lists, and — when a list runs dry — getNextNodePair implemented by
// re-running a from-scratch top-(m+1) join. PJ-i replaces only that last
// step.
type PJ struct {
	spec   Spec
	m      int
	twoWay TwoWayKind
	Stats  RunStats
}

// NewPJ validates the spec and returns PJ with per-edge budget m and the
// default B-IDJ-Y 2-way join.
func NewPJ(spec Spec, m int) (*PJ, error) {
	return NewPJWith(spec, m, TwoWayBIDJY)
}

// NewPJWith selects the per-edge 2-way join algorithm.
func NewPJWith(spec Spec, m int, kind TwoWayKind) (*PJ, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if m < 0 {
		return nil, fmt.Errorf("core: m must be >= 0, got %d", m)
	}
	return &PJ{spec: spec, m: m, twoWay: kind}, nil
}

// Name implements Algorithm.
func (a *PJ) Name() string { return "PJ" }

// Stream opens the rank-ordered answer stream: PJ's per-edge sources re-run
// their 2-way join from scratch with a +1 budget whenever they run dry
// (Algorithm 1, steps 9–10) — the deliberately wasteful baseline PJ-i
// improves on. The caller must Release the stream.
func (a *PJ) Stream() (TupleStream, error) {
	a.Stats = RunStats{}
	ctrs := a.spec.runCounters()
	srcs, err := buildSources(&a.spec, ctrs, a.twoWay == TwoWayBIDJY, func(cfg join2.Config) (edgeSource, error) {
		j, err := a.twoWay.newJoiner(cfg)
		if err != nil {
			return nil, err
		}
		// PJ must keep the from-scratch re-join strategy even for B-IDJ
		// joiners (NewNamedStream would upgrade those to the incremental F
		// structure, i.e. to PJ-i), so the rejoin stream is named directly.
		// m = 0 is allowed: the initial batch is then a top-1 join.
		return join2.NewRejoinStream(j, join2.StreamSpec{Initial: a.m, Refetches: &a.Stats.Refetches})
	})
	if err != nil {
		return nil, err
	}
	return newPBRJStream(&a.spec, srcs, &a.Stats, ctrs, false), nil
}

// Run implements Algorithm by draining the stream to k.
func (a *PJ) Run() ([]Answer, error) {
	st, err := a.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Release()
	return drainTuples(st, a.spec.clampK())
}

// PJI is the Incremental Partial Join (PJ-i, §VI-D): identical to PJ except
// that each edge keeps the B-IDJ bound state in the F table (join2.Incremental),
// so the (m+1)-th, (m+2)-th, … pairs are derived from already-computed
// bounds instead of re-running the 2-way join. The paper reports up to 50×
// speedups over PJ from exactly this change.
type PJI struct {
	spec    Spec
	m       int
	variant join2.BoundVariant
	Stats   RunStats

	// DisableCornerBound turns off the PBRJ early-stop threshold, so the
	// rank join drains every source completely. Used only by the
	// corner-bound ablation bench; leave false otherwise.
	DisableCornerBound bool
}

// NewPJI validates the spec and returns PJ-i with per-edge budget m and the
// Y⁺ₗ bound.
func NewPJI(spec Spec, m int) (*PJI, error) {
	return NewPJIWith(spec, m, join2.BoundY)
}

// NewPJIWith selects the B-IDJ bound variant used by the incremental joins.
func NewPJIWith(spec Spec, m int, variant join2.BoundVariant) (*PJI, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if m < 0 {
		return nil, fmt.Errorf("core: m must be >= 0, got %d", m)
	}
	return &PJI{spec: spec, m: m, variant: variant}, nil
}

// Name implements Algorithm.
func (a *PJI) Name() string { return "PJ-i" }

// Stream opens the rank-ordered answer stream: each per-edge source is the
// incremental F structure of §VI-D, so every pull past the initial top-m
// refines only the pairs contending for the next rank. The caller must
// Release the stream (that is what returns the pooled engines and folds the
// walk counters into Stats).
func (a *PJI) Stream() (TupleStream, error) {
	a.Stats = RunStats{}
	ctrs := a.spec.runCounters()
	srcs, err := buildSources(&a.spec, ctrs, a.variant == join2.BoundY, func(cfg join2.Config) (edgeSource, error) {
		return join2.NewIncrementalStream(cfg, a.variant, join2.StreamSpec{
			Initial:   a.m, // 0 selects 1: Incremental.Run needs a positive budget
			Refetches: &a.Stats.Refetches,
		})
	})
	if err != nil {
		return nil, err
	}
	return newPBRJStream(&a.spec, srcs, &a.Stats, ctrs, a.DisableCornerBound), nil
}

// Run implements Algorithm by draining the stream to k.
func (a *PJI) Run() ([]Answer, error) {
	st, err := a.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Release()
	return drainTuples(st, a.spec.clampK())
}
