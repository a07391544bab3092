// Package plan is the cost-based query planner behind the library's
// execution entry points. The paper's experimental section (Figs 7–10) is a
// study of *which* operator wins under which workload, and this package
// turns that study into a decision procedure: the served operators (B-IDJ-Y,
// B-IDJ-X and B-BJ for 2-way joins, PJ-i and AP for n-way) are one table
// (name, class, streaming capability, resumability, cost function), Decide
// ranks the candidates of a query class by estimated cost over a Workload
// built from the graph's cached structural Stats and the query's shape, and
// the execution layers (dhtjoin, internal/service) open whatever wins by
// name through join2.NewNamedStream and core.NewNamed. Operators the model
// never picks (F-BJ, F-IDJ, NL, PJ) are not served; they stay in the
// operator packages for the paper's reproduction. Every served operator
// serves every measure (they differ only in the walk kind and params the
// execution config carries) and produces bit-identical rankings (canonical
// tie keys), so planning is purely a cost decision — a wrong estimate can
// only cost time, never change an answer.
//
// The cost unit is *edge relaxations*: the number of CSR edge traversals the
// walk kernels would perform, the quantity the dht.Counters instrument.
// Estimates come from an analytic frontier-growth model of one truncated
// walk (cost.go), so a plan is a pure function of the request and the
// graph's stats.
//
// Import shape: plan imports neither operator package, and neither imports
// plan; the executor names are the only thing they share.
package plan

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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
	// ErrUnknownExecutor reports a forced algorithm name that is not
	// served.
	ErrUnknownExecutor = errors.New("plan: unknown executor")

	// ErrWrongClass reports a forced algorithm of the other query class —
	// a 2-way joiner forced onto an n-way query or vice versa.
	ErrWrongClass = errors.New("plan: executor does not evaluate this query class")
)

// executor is one served operator. name is the paper's operator name
// ("B-IDJ-Y", "PJ-i", …) and is the key users force through hints.
type executor struct {
	name  string
	class Class

	// streaming marks executors that produce rank-ordered results
	// incrementally (results surface before the full top-k is computed);
	// non-streaming executors materialize their work up front and replay it.
	streaming bool

	// resumable marks executors whose (m+1)-th result is cheap to derive
	// from the m-th (the incremental F structure of §VI-D); non-resumable
	// executors re-join with a grown budget when pulled past their batch.
	resumable bool

	// cost estimates the executor's work on a workload, in edge relaxations
	// (cost.go).
	cost func(w Workload) float64
}

// executors is the served set, sorted by name. join2.NewNamedStream and
// core.NewNamed open the same names.
var executors = []executor{
	// Served AP joins its edges backward (core.NewNamed).
	{name: "AP", class: NWay, cost: costAP},
	// The basic join materializes its top-k in one pass; streaming past it
	// re-joins with a grown budget.
	{name: "B-BJ", class: TwoWay, cost: costBBJ},
	// The B-IDJ family streams natively (pairs confirm as the bound deepens)
	// and resumes through the incremental F structure of §VI-D.
	{name: "B-IDJ-X", class: TwoWay, streaming: true, resumable: true, cost: costBIDJX},
	{name: "B-IDJ-Y", class: TwoWay, streaming: true, resumable: true, cost: costBIDJY},
	{name: "PJ-i", class: NWay, streaming: true, resumable: true, cost: costPJI},
}

// Names lists the served executor names of a class, sorted.
func Names(class Class) []string {
	var out []string
	for _, e := range executors {
		if e.class == class {
			out = append(out, e.name)
		}
	}
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

// Decide ranks the served executors of class by estimated cost over w and
// returns the plan. A non-empty forced name skips the cost choice — the
// named executor is validated (ErrUnknownExecutor, ErrWrongClass) and chosen,
// with the full estimate table still attached so Explain shows what the
// forced choice passed up. Ties break by name, making the decision a pure
// function of (class, w, forced).
func Decide(class Class, w Workload, forced string) (*Plan, error) {
	ests := make([]Estimate, 0, len(executors))
	for _, e := range executors {
		if e.class == class {
			ests = append(ests, Estimate{Algorithm: e.name, Cost: e.cost(w), Streaming: e.streaming, Resumable: e.resumable})
		}
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
	for _, e := range executors {
		if e.name != name {
			continue
		}
		if e.class != class {
			return fmt.Errorf("%w: %q is a %s executor, query is %s", ErrWrongClass, name, e.class, class)
		}
		return nil
	}
	return fmt.Errorf("%w: %q (registered %s executors: %s)",
		ErrUnknownExecutor, name, class, strings.Join(Names(class), ", "))
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
