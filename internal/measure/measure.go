// Package measure is the proximity-measure registry: the generalization
// that turns "one paper's operator" into a graph-proximity query engine. A
// measure is a named kernel — its score family, walk kind, default
// parameters and declared accuracy contract — mirroring the
// plan.Descriptor idiom for executors. Every execution layer (dhtjoin, the
// service, njoin) resolves its request through Resolve — the one place the
// measure name, the kernel's walk kind and default parameters, and the
// system defaults are applied — and threads the result through the existing
// planner and executor machinery.
//
// Every registered measure (dht, reach, ppr) is a fold over step
// probabilities of the truncated random walk, computed by the internal/dht
// engines. They share every registered executor — selecting among them
// changes the Kind and Params threaded into the engines, never the executor
// set — which is why "dht" through the registry is bit-identical to the
// pre-registry direct path. SimRank, which the walk form cannot express, is
// a library feature (simrank.Compute joined through core.JoinLists), not a
// registered measure.
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
	"sort"
	"sync"

	"repro/internal/dht"
)

// Contract declares how a kernel's scores relate to the measure's exact
// value.
type Contract int

const (
	// Exact kernels compute the measure's defining truncated value with
	// float64 reference arithmetic — the same numbers the equivalence
	// suites pin bit-identically.
	Exact Contract = iota
)

// String names the contract.
func (c Contract) String() string { return "exact" }

// MarshalJSON renders the contract as its string form.
func (c Contract) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// ErrUnknownMeasure reports a measure name no package registered; callers
// branch with errors.Is (njoind maps it to HTTP 400).
var ErrUnknownMeasure = errors.New("measure: unknown measure")

// retired maps measure names the registry no longer serves to the hint
// their ErrUnknownMeasure carries, so a stale request learns where the
// measure went instead of reading a bare "unknown".
var retired = map[string]string{
	"simrank": "removed from the server: compute it with dhtjoin.ComputeSimRank and join its edge lists with dhtjoin.JoinLists",
}

// Kernel is one registered proximity measure.
type Kernel struct {
	// Name is the wire/flag spelling ("dht", "reach", "ppr").
	Name string

	// Contract declares the accuracy contract of the kernel's scores.
	Contract Contract

	// WalkBased is true for every registered kernel; only the benchmark
	// module still reads it.
	WalkBased bool

	// Walk is the step-probability kind the kernel folds (dht.FirstHit or
	// dht.Reach).
	Walk dht.Kind

	// PlanMeasure is "" for every registered kernel; only the benchmark
	// module still reads it.
	PlanMeasure string

	// DefaultParams resolves zero-value caller params to the measure's
	// customary parameterization (e.g. ppr → dht.PPR(0.5)). Non-zero caller
	// params always win. Nil leaves the system default (Resolve's DHTλ(0.2)).
	DefaultParams func(p dht.Params) dht.Params

	// LambdaParams maps a front end's single "lambda" number to this
	// measure's coefficients (ppr → dht.PPR(c)). Nil means dht.DHTLambda.
	LambdaParams func(lambda float64) dht.Params

	// Doc is the one-line description GET /measures serves.
	Doc string
}

// registry holds the kernels by name; registration happens in this
// package's init (and tests'), mirroring the plan registry idiom.
var registry = struct {
	sync.RWMutex
	byName map[string]Kernel
}{byName: make(map[string]Kernel)}

// Register publishes a measure kernel. It panics on an empty or duplicate
// name — registration is init-time wiring, and a broken registry should
// fail the process, not a query.
func Register(k Kernel) {
	if k.Name == "" {
		panic("measure: Register with empty measure name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[k.Name]; dup {
		panic(fmt.Sprintf("measure: %q registered twice", k.Name))
	}
	registry.byName[k.Name] = k
}

// Lookup resolves a measure by name; the empty name selects "dht", the
// paper's measure and the system-wide default. Unknown names return an
// ErrUnknownMeasure-wrapped error listing the registered spellings, and a
// retired name's error says where it went.
func Lookup(name string) (Kernel, error) {
	if name == "" {
		name = "dht"
	}
	registry.RLock()
	k, ok := registry.byName[name]
	registry.RUnlock()
	if !ok {
		if hint, gone := retired[name]; gone {
			return Kernel{}, fmt.Errorf("%w: %q %s (registered: %v)", ErrUnknownMeasure, name, hint, Names())
		}
		return Kernel{}, fmt.Errorf("%w: %q (registered: %v)", ErrUnknownMeasure, name, Names())
	}
	return k, nil
}

// Names lists the registered measure names, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.byName))
	for n := range registry.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kernels lists the registered kernels sorted by name.
func Kernels() []Kernel {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Kernel, 0, len(registry.byName))
	for _, k := range registry.byName {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Info is the wire form of one registered kernel (GET /measures).
type Info struct {
	Name     string   `json:"name"`
	Contract Contract `json:"contract"`
	Family   string   `json:"family"` // always "walk"
	Walk     string   `json:"walk,omitempty"`
	Doc      string   `json:"doc"`
}

// Describe returns the registered kernels in wire form, sorted by name.
func Describe() []Info {
	ks := Kernels()
	out := make([]Info, len(ks))
	for i, k := range ks {
		out[i] = Info{Name: k.Name, Contract: k.Contract, Family: "walk", Walk: k.Walk.String(), Doc: k.Doc}
	}
	return out
}

// ResolveParams applies the kernel's default parameterization to
// caller-supplied params: zero-value params take the kernel default (when
// the kernel declares one), anything else is returned unchanged.
func (k Kernel) ResolveParams(p dht.Params) dht.Params {
	if k.DefaultParams != nil && p == (dht.Params{}) {
		return k.DefaultParams(p)
	}
	return p
}
