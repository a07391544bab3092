// Package measure is the table of served proximity measures: the
// generalization that turns "one paper's operator" into a graph-proximity
// query engine. A measure is a named kernel — its walk kind and default
// parameters. Every execution layer (dhtjoin, the service, njoin) resolves
// its request through Resolve — the one place the measure name, the
// kernel's walk kind and default parameters, and the system defaults are
// applied — and threads the result through the planner and executors.
//
// Every served measure (dht, reach, ppr) is a fold over step probabilities
// of the truncated random walk, computed by the internal/dht engines, with
// float64 reference arithmetic (GET /measures calls that contract "exact").
// They share every served executor — selecting among them changes the Kind
// and Params threaded into the engines, never the executor set — which is
// why "dht" here is bit-identical to the direct engine path. SimRank, which
// the walk form cannot express, is a library feature (simrank.Compute
// joined through core.JoinLists), not a served measure.
//
// Import shape: measure sits above the measure implementations (dht, ppr)
// and below the execution facades (dhtjoin, internal/service).
// The operator packages (join2, core) do NOT import it — they stay keyed on
// the small dht.Kind + Params config they always had, which is what keeps
// the walk hot paths untouched.
package measure

import (
	"errors"
	"fmt"

	"repro/internal/dht"
)

// ErrUnknownMeasure reports a measure name that is not served; callers
// branch with errors.Is (njoind maps it to HTTP 400).
var ErrUnknownMeasure = errors.New("measure: unknown measure")

// retired maps measure names no longer served to the hint their
// ErrUnknownMeasure carries, so a stale request learns where the measure
// went instead of reading a bare "unknown".
var retired = map[string]string{
	"simrank": "removed from the server: compute it with dhtjoin.ComputeSimRank and join its edge lists with dhtjoin.JoinLists",
}

// Kernel is one served proximity measure.
type Kernel struct {
	// Name is the wire/flag spelling ("dht", "reach", "ppr").
	Name string

	// WalkBased is true for every served kernel; only the benchmark module
	// still reads it.
	WalkBased bool

	// Walk is the step-probability kind the kernel folds (dht.FirstHit or
	// dht.Reach).
	Walk dht.Kind

	// PlanMeasure is "" for every served kernel; only the benchmark module
	// still reads it.
	PlanMeasure string

	// DefaultParams is the measure's customary parameterization that
	// zero-value caller params resolve to (ppr → dht.PPR(0.5)). Non-zero
	// caller params always win. Zero leaves the system default (Resolve's
	// DHTλ(0.2)).
	DefaultParams dht.Params

	// LambdaParams maps a front end's single "lambda" number to this
	// measure's coefficients (ppr → dht.PPR(c)). Nil means dht.DHTLambda.
	LambdaParams func(lambda float64) dht.Params

	// Doc is the one-line description GET /measures serves.
	Doc string
}

// kernels is the served set, sorted by name.
var kernels = []Kernel{
	{
		Name:      "dht",
		WalkBased: true,
		Walk:      dht.FirstHit,
		Doc:       "decayed hitting time (the paper's measure): first-hit walk fold, default DHTλ(0.2)",
	},
	{
		Name:          "ppr",
		WalkBased:     true,
		Walk:          dht.Reach,
		DefaultParams: dht.PPR(0.5),
		LambdaParams:  dht.PPR,
		Doc:           "personalized PageRank (no self term): reach fold of dht.PPR(c), default c=0.5",
	},
	{
		Name:      "reach",
		WalkBased: true,
		Walk:      dht.Reach,
		Doc:       "reach-probability fold of the caller's params (the walk may revisit the target)",
	},
}

// Lookup resolves a measure by name; the empty name selects "dht", the
// paper's measure and the system-wide default. Unknown names return an
// ErrUnknownMeasure-wrapped error listing the served spellings, and a
// retired name's error says where it went.
func Lookup(name string) (Kernel, error) {
	if name == "" {
		name = "dht"
	}
	for _, k := range kernels {
		if k.Name == name {
			return k, nil
		}
	}
	if hint, gone := retired[name]; gone {
		return Kernel{}, fmt.Errorf("%w: %q %s (registered: %v)", ErrUnknownMeasure, name, hint, Names())
	}
	return Kernel{}, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownMeasure, name, Names())
}

// Names lists the served measure names, sorted.
func Names() []string {
	out := make([]string, len(kernels))
	for i, k := range kernels {
		out[i] = k.Name
	}
	return out
}

// Info is the wire form of one served kernel (GET /measures).
type Info struct {
	Name     string `json:"name"`
	Contract string `json:"contract"` // always "exact": float64 reference arithmetic
	Family   string `json:"family"`   // always "walk"
	Walk     string `json:"walk,omitempty"`
	Doc      string `json:"doc"`
}

// Describe returns the served kernels in wire form, sorted by name.
func Describe() []Info {
	out := make([]Info, len(kernels))
	for i, k := range kernels {
		out[i] = Info{Name: k.Name, Contract: "exact", Family: "walk", Walk: k.Walk.String(), Doc: k.Doc}
	}
	return out
}

// ResolveParams applies the kernel's default parameterization to
// caller-supplied params: zero-value params take the kernel default (zero
// when the kernel declares none), anything else is returned unchanged.
func (k Kernel) ResolveParams(p dht.Params) dht.Params {
	if p == (dht.Params{}) {
		return k.DefaultParams
	}
	return p
}
