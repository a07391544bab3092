package join2

// This file opens the served 2-way joiners by name. The planner
// (internal/plan) lists the same three names with their capabilities and
// cost model; the execution layers (dhtjoin, internal/service) ask
// plan.Decide and open whatever wins through NewNamedStream.
//
// Only the backward joiners are served. The forward ones (F-BJ, F-IDJ) stay
// constructible for the paper's reproduction (internal/experiments); all
// five produce bit-identical rankings (canonical tie keys), so the choice
// costs time, never correctness.

import "fmt"

// NewNamedStream opens the serving stream of the named served 2-way
// executor (B-BJ, B-IDJ-X or B-IDJ-Y) over cfg — the one strategy choice in
// the system. The B-IDJ family streams through the incremental F structure
// unless the caller is a batch drain (batch = true: the caller will pull
// exactly the initial budget and stop, so populating the F structure would
// be paid for nothing); everything else — B-BJ, batch drains — runs the
// underlying joiner behind a re-join that doubles its budget, which prices
// a batch drain identically to a direct TopK call and amortizes re-joins to
// O(log) of the drained length. Every choice yields the identical ranking
// (canonical tie keys); the strategy split is purely a cost decision. Any
// other name is an error.
func NewNamedStream(name string, cfg Config, spec StreamSpec, batch bool) (Stream, error) {
	var (
		j   Joiner
		err error
	)
	switch name {
	case "B-BJ":
		j, err = NewBBJ(cfg)
	case "B-IDJ-X", "B-IDJ-Y":
		v := BoundX
		if name == "B-IDJ-Y" {
			v = BoundY
		}
		if !batch {
			return NewIncrementalStream(cfg, v, spec)
		}
		j, err = NewBIDJ(cfg, v)
	default:
		return nil, fmt.Errorf("join2: no served 2-way executor %q", name)
	}
	if err != nil {
		return nil, err
	}
	return newRejoinStream(j, spec, growDouble)
}
