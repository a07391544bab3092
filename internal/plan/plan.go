// Package plan is the cost-based query planner behind the library's
// execution entry points. The paper's experimental section (Figs 7–10) is a
// study of *which* operator wins under which workload, and this package
// turns that study into a decision procedure: every served operator
// (B-IDJ-Y, B-IDJ-X and B-BJ for 2-way joins, PJ-i and AP for n-way)
// registers a Descriptor (name, streaming capability,
// resumability, cost function), Decide ranks the candidates of a query class
// by estimated cost over a Workload built from the graph's cached structural
// Stats and the query's shape, and the execution layers (dhtjoin,
// internal/service) run whatever wins. Operators the model never picks
// (F-BJ, F-IDJ, NL, PJ) are not registered; they stay in the operator
// packages for the paper's reproduction. Every registered operator serves
// every registered measure (they differ only in the walk kind and params
// the execution config carries) and produces bit-identical rankings
// (canonical tie keys), so planning is purely a cost decision — a wrong
// estimate can only cost time, never change an answer.
//
// The cost unit is *edge relaxations*: the number of CSR edge traversals the
// walk kernels would perform, the quantity the dht.Counters instrument.
// Estimates come from an analytic frontier-growth model of one truncated
// walk, so a plan is a pure function of the request and the graph's stats.
//
// Import shape: plan sits below the operator packages. internal/join2 and
// internal/core import plan to register their executors (via init), so plan
// must not import either; Descriptor.New is therefore an opaque factory the
// registering package types and the execution layer asserts back.
package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/graph"
)

// Class partitions executors by the query family they evaluate.
type Class int

const (
	// TwoWay executors answer top-k 2-way joins (join2.Joiner).
	TwoWay Class = iota
	// NWay executors answer top-k n-way joins (core.Algorithm).
	NWay
)

// String names the class.
func (c Class) String() string {
	if c == NWay {
		return "n-way"
	}
	return "2-way"
}

// MarshalJSON renders the class as its string form.
func (c Class) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// Typed planner errors; callers branch with errors.Is. The dhtjoin facade
// wraps them into its own sentinels (ErrUnknownAlgorithm, ErrHintConflict).
var (
	// ErrUnknownExecutor reports a forced algorithm name no package
	// registered.
	ErrUnknownExecutor = errors.New("plan: unknown executor")

	// ErrWrongClass reports a forced algorithm of the other query class —
	// a 2-way joiner forced onto an n-way query or vice versa.
	ErrWrongClass = errors.New("plan: executor does not evaluate this query class")
)

// CostFunc estimates the work of one executor on a workload, in edge
// relaxations. Registered by the operator package alongside its factory.
type CostFunc func(w Workload) float64

// Descriptor is one registered executor. Name is the paper's operator name
// ("B-IDJ-Y", "PJ-i", …) and is the key users force through hints.
type Descriptor struct {
	Name  string
	Class Class

	// Streaming marks executors that produce rank-ordered results
	// incrementally (results surface before the full top-k is computed);
	// non-streaming executors materialize their work up front and replay it.
	Streaming bool

	// Resumable marks executors whose (m+1)-th result is cheap to derive
	// from the m-th (the incremental F structure of §VI-D); non-resumable
	// executors re-join with a grown budget when pulled past their batch.
	Resumable bool

	// Cost estimates the executor's work on a workload.
	Cost CostFunc

	// New is the executor factory, typed by the registering package
	// (join2.Factory / core.Factory) and asserted back by the execution
	// layer. Opaque here so plan stays import-free of the operator packages.
	New any
}

// registry holds the executors by name. Registration happens in the operator
// packages' init functions; the lock exists for tests that register probes.
var registry = struct {
	sync.RWMutex
	byName map[string]Descriptor
}{byName: make(map[string]Descriptor)}

// Register publishes an executor descriptor. It panics on an empty or
// duplicate name or a nil cost function — registration is init-time wiring,
// and a broken registry should fail the process, not a query.
func Register(d Descriptor) {
	if d.Name == "" {
		panic("plan: Register with empty executor name")
	}
	if d.Cost == nil {
		panic(fmt.Sprintf("plan: executor %q registered without a cost function", d.Name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[d.Name]; dup {
		panic(fmt.Sprintf("plan: executor %q registered twice", d.Name))
	}
	registry.byName[d.Name] = d
}

// Lookup resolves an executor by name.
func Lookup(name string) (Descriptor, bool) {
	registry.RLock()
	defer registry.RUnlock()
	d, ok := registry.byName[name]
	return d, ok
}

// Executors lists the registered executors of a class, sorted by name.
func Executors(class Class) []Descriptor {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Descriptor, 0, len(registry.byName))
	for _, d := range registry.byName {
		if d.Class == class {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Workload is the planner's view of one query: the graph's structural
// statistics, the query shape, and the resolved execution knobs. Cost
// functions read it; Explain reports it.
type Workload struct {
	// Stats is the graph's cached structural summary (graph.Graph.Stats).
	Stats graph.Stats `json:"stats"`

	// P and Q are the 2-way node-set sizes (TwoWay class only).
	P int `json:"p,omitempty"`
	Q int `json:"q,omitempty"`

	// SetSizes and QueryEdges describe the n-way query graph (NWay class
	// only): |R_i| per position and the directed edges over positions.
	SetSizes   []int    `json:"set_sizes,omitempty"`
	QueryEdges [][2]int `json:"query_edges,omitempty"`

	// K is the result demand the plan is sized for. Streams have unknown
	// demand up front; the execution layers plan for the initial batch (the
	// resolved per-edge budget M) and let resumability cover the tail.
	K int `json:"k"`

	// M is the per-edge initial budget of the partial-join family.
	M int `json:"m,omitempty"`

	// D is the truncation depth (walk length) every walk runs to.
	D int `json:"d"`

	// Measure is always empty and unread: every executor serves every
	// measure. It stays until the benchmark module stops setting it.
	Measure string `json:"measure,omitempty"`
}

// PairCost is the modeled cost (in edge relaxations) of one candidate-pair
// heap insertion or score fold — a handful of comparisons and float ops,
// small next to an edge relaxation but not free: it is what separates the
// O(|P|·|Q|) bookkeeping floors of the algorithms once walk costs converge.
// Exported for the operator packages' registered cost functions.
const PairCost = 4.0

// WalkCost estimates the edge relaxations of one full-depth (D-step)
// truncated walk by an analytic frontier-growth model: the frontier
// multiplies by the mean out-degree each step until it saturates at |E|
// relaxations per step (the dense-sweep ceiling the adaptive kernel switches
// to).
func (w Workload) WalkCost() float64 {
	delta := w.Stats.MeanOutDeg
	if delta < 1.05 {
		delta = 1.05 // sublinear growth still touches ≥ 1 edge per step
	}
	edges := float64(w.Stats.Arcs)
	if edges < 1 {
		edges = 1
	}
	cost, frontier := 0.0, delta
	for l := 0; l < w.D; l++ {
		cost += min(frontier, edges)
		frontier *= delta
	}
	return max(cost, 1)
}

// Selectivity is k over the candidate-space size, clamped to [0, 1]: the
// fraction of the space the query demands. Iterative deepening pays off when
// it is small (pruning discards most of the space before full-depth walks)
// and turns into pure overhead as it approaches 1.
func (w Workload) Selectivity() float64 {
	space := w.SpaceSize()
	if space <= 0 {
		return 1
	}
	rho := float64(w.K) / float64(space)
	if rho > 1 {
		return 1
	}
	if rho < 0 {
		return 0
	}
	return rho
}

// SpaceSize is the candidate-space size: |P|·|Q| for 2-way, Π|R_i| for
// n-way (saturating).
func (w Workload) SpaceSize() int {
	if len(w.SetSizes) == 0 {
		return w.P * w.Q
	}
	const maxInt = int(^uint(0) >> 1)
	total := 1
	for _, s := range w.SetSizes {
		if s > 0 && total > maxInt/s {
			return maxInt
		}
		total *= s
	}
	return total
}

// Estimate is one candidate's scored row in a plan.
type Estimate struct {
	Algorithm string  `json:"algorithm"`
	Cost      float64 `json:"cost"` // estimated edge relaxations
	Streaming bool    `json:"streaming"`
	Resumable bool    `json:"resumable"`
}

// Plan is the planner's decision for one query: the chosen executor, every
// candidate's cost estimate (ascending), and the workload (with the stats
// snapshot) the estimates were computed from.
type Plan struct {
	Class     Class      `json:"class"`
	Algorithm string     `json:"algorithm"`
	Forced    bool       `json:"forced,omitempty"` // chosen by hint, not cost
	Estimates []Estimate `json:"estimates"`
	Workload  Workload   `json:"workload"`
}

// Decide ranks the registered executors of class by estimated cost over w
// and returns the plan. A non-empty forced name skips the cost choice — the
// named executor is validated (ErrUnknownExecutor, ErrWrongClass) and chosen,
// with the full estimate table still attached so Explain shows what the
// forced choice passed up. Ties break by name, making the decision a pure
// function of (class, w, forced).
func Decide(class Class, w Workload, forced string) (*Plan, error) {
	cands := Executors(class)
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: no executors registered for %s queries", ErrUnknownExecutor, class)
	}
	ests := make([]Estimate, 0, len(cands))
	for _, d := range cands {
		ests = append(ests, Estimate{
			Algorithm: d.Name,
			Cost:      d.Cost(w),
			Streaming: d.Streaming,
			Resumable: d.Resumable,
		})
	}
	sort.SliceStable(ests, func(i, j int) bool {
		if ests[i].Cost != ests[j].Cost {
			return ests[i].Cost < ests[j].Cost
		}
		return ests[i].Algorithm < ests[j].Algorithm
	})
	pl := &Plan{Class: class, Algorithm: ests[0].Algorithm, Estimates: ests, Workload: w}
	if forced != "" {
		if err := ValidateForced(class, forced); err != nil {
			return nil, err
		}
		pl.Algorithm = forced
		pl.Forced = true
	}
	return pl, nil
}

// ValidateForced checks a forced executor name against a query class
// without computing a plan — the cheap hint validation the facade runs up
// front.
func ValidateForced(class Class, name string) error {
	d, ok := Lookup(name)
	if !ok {
		var names []string
		for _, d := range Executors(class) {
			names = append(names, d.Name)
		}
		return fmt.Errorf("%w: %q (registered %s executors: %s)",
			ErrUnknownExecutor, name, class, strings.Join(names, ", "))
	}
	if d.Class != class {
		return fmt.Errorf("%w: %q is a %s executor, query is %s", ErrWrongClass, name, d.Class, class)
	}
	return nil
}

// Factory returns the chosen executor's registered factory (the opaque New
// field) for the execution layer to assert to its typed signature.
func (p *Plan) Factory() any {
	d, ok := Lookup(p.Algorithm)
	if !ok {
		return nil
	}
	return d.New
}

// Format renders the plan as the human-readable cost table the CLI tools
// print.
func (p *Plan) Format() string {
	var sb strings.Builder
	forced := ""
	if p.Forced {
		forced = " (forced by hint)"
	}
	fmt.Fprintf(&sb, "plan: %s%s  [%s join]\n", p.Algorithm, forced, p.Class)
	w := &p.Workload
	if p.Class == TwoWay {
		fmt.Fprintf(&sb, "workload: |P|=%d |Q|=%d k=%d d=%d", w.P, w.Q, w.K, w.D)
	} else {
		sizes := make([]string, len(w.SetSizes))
		for i, s := range w.SetSizes {
			sizes[i] = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(&sb, "workload: sets=[%s] edges=%d k=%d m=%d d=%d",
			strings.Join(sizes, ","), len(w.QueryEdges), w.K, w.M, w.D)
	}
	fmt.Fprintf(&sb, "; graph |V|=%d |E|=%d meanDeg=%.2f walkCost=%.0f\n",
		w.Stats.Nodes, w.Stats.Arcs, w.Stats.MeanOutDeg, w.WalkCost())
	fmt.Fprintf(&sb, "%-10s %14s %10s %10s\n", "candidate", "est.relaxations", "streaming", "resumable")
	for _, e := range p.Estimates {
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		fmt.Fprintf(&sb, "%-10s %14.3g %10s %10s\n",
			e.Algorithm, e.Cost, mark(e.Streaming), mark(e.Resumable))
	}
	return sb.String()
}
