package core

// This file opens the served n-way operators (AP, PJ-i) by name. The
// planner (internal/plan) lists the same two names with their capabilities
// and cost model; the execution layers ask plan.Decide and open whatever
// wins through NewNamed.
//
// NL and PJ stay constructible for the paper's reproduction
// (internal/experiments) but are not served.

import "fmt"

// StreamAlgorithm is an n-way operator that exposes its incremental pull
// stream alongside the batch Run — every n-way operator implements it.
type StreamAlgorithm interface {
	Algorithm
	Stream() (TupleStream, error)
}

// NewNamed constructs the named served n-way operator over spec with
// per-edge budget m: "AP" (its edges joined backward, ignoring m — AP has
// no notion of a partial batch; NewAP keeps the paper's F-BJ) or "PJ-i".
// Any other name is an error.
func NewNamed(name string, spec Spec, m int) (StreamAlgorithm, error) {
	switch name {
	case "AP":
		return NewAPWith(spec, TwoWayBBJ)
	case "PJ-i":
		return NewPJI(spec, m)
	}
	return nil, fmt.Errorf("core: no served n-way executor %q", name)
}
