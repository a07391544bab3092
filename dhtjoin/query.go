package dhtjoin

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/service"
)

// Query is the library's entry point: a value describing one join — graph,
// either a (P, Q) pair of node sets or an n-way query graph, and options —
// whose execution yields a context-aware pull stream of rank-ordered results
// instead of a batch slice. Build one over a graph with NewPairQuery or
// NewJoinQuery, or over a graph a Service holds with Service.PairQuery or
// Service.JoinQuery, refine it with WithOptions, then either
//
//   - range over Results(ctx) / Answers(ctx) (Go 1.23+ iterators) — the
//     stream stops, and every pooled engine is released, as soon as the
//     loop breaks or ctx is cancelled; or
//   - hold a handle from OpenPairs(ctx) / OpenAnswers(ctx) for explicit
//     Next / NextK / Stop control ("give me the next k" pagination).
//
// The streamed ranking is exactly the batch ranking: the first m results of
// any stream are bit-identical (same pairs, same float64 scores, same
// order) to the one-shot top-m call with the same options — TopKPairs and
// TopK are in fact thin wrappers that drain a stream. A Query value is
// immutable after construction and may be executed any number of times;
// each execution is independent. Streams themselves are single-goroutine.
// A bound query runs on its Service, an unbound one on a throw-away session
// over its graph with the caches off; every method serves both.
type Query struct {
	g     *Graph
	svc   *Service // the service a bound query runs on; nil for an unbound one
	name  string   // the graph name svc serves it under
	p, q  *NodeSet
	join  *QueryGraph
	opts  *Options
	hints Hints
}

// Hints force planner decisions for one query. The zero value defers
// everything to the cost-based planner. Invalid hints are rejected at
// Validate/open time with the package's typed errors: an Algorithm naming no
// registered executor fails with ErrUnknownAlgorithm, an algorithm of the
// wrong query class (a 2-way joiner on an n-way query, or vice versa) or of
// another measure fails with ErrHintConflict — both errors.Is-able.
type Hints struct {
	// Algorithm forces the named executor instead of the planner's pick:
	// one of Algorithms2Way for pair queries ("B-IDJ-Y", "B-IDJ-X", "B-BJ")
	// or AlgorithmsNWay for n-way queries ("PJ-i", "AP"), plus "SR-SCAN" /
	// "SR-AP" under the simrank measure. Results are bit-identical under any
	// choice — forcing is purely a cost decision. A non-empty hint wins over
	// Options.Algorithm, so WithHints and WithOptions commute.
	Algorithm string
}

// WithHints returns a copy of the query carrying h; see Hints for the
// validation semantics.
func (qy *Query) WithHints(h Hints) *Query {
	cp := *qy
	cp.hints = h
	return &cp
}

// QueryPlan is the planner's decision for one query: the chosen algorithm,
// the per-candidate cost estimates (ascending, in estimated edge
// relaxations), and the workload — including the graph's structural stats
// snapshot — the estimates were computed from. Returned by Query.Explain.
type QueryPlan = plan.Plan

// PlanEstimate is one candidate row of a QueryPlan.
type PlanEstimate = plan.Estimate

// Algorithms2Way and AlgorithmsNWay list the registered executor names of
// each query class, in registry (alphabetical) order — the valid values of
// Hints.Algorithm for a walk-measure query (the default). Executors
// dedicated to another measure (SimRank's SR-SCAN / SR-AP) are excluded:
// forcing one onto a query that does not select their measure is an
// ErrHintConflict, and AlgorithmsForMeasure lists them instead.
func Algorithms2Way() []string { return algorithmNames(plan.TwoWay, "") }

// AlgorithmsNWay lists the registered n-way executor names; see
// Algorithms2Way.
func AlgorithmsNWay() []string { return algorithmNames(plan.NWay, "") }

// AlgorithmsForMeasure lists the 2-way and n-way executor names a query
// with the named measure may force via Hints.Algorithm. The empty name
// selects "dht"; every walk measure shares the walk executor family, while
// e.g. "simrank" gets its dedicated SR-SCAN / SR-AP.
func AlgorithmsForMeasure(name string) (twoWay, nWay []string, err error) {
	kern, err := measure.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return algorithmNames(plan.TwoWay, kern.PlanMeasure), algorithmNames(plan.NWay, kern.PlanMeasure), nil
}

func algorithmNames(class plan.Class, planMeasure string) []string {
	ds := plan.Executors(class)
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		if d.Measure == planMeasure {
			out = append(out, d.Name)
		}
	}
	return out
}

// NewPairQuery describes a 2-way join from p to q over g. The cost-based
// planner picks the evaluation algorithm per query — usually B-IDJ-Y (the
// paper's best 2-way algorithm, streamed through the incremental F structure
// of §VI-D), but e.g. B-BJ when the demanded prefix covers most of the
// candidate space and iterative deepening could not prune. Explain reports
// the decision; WithHints forces one. Results are bit-identical under every
// choice.
func NewPairQuery(g *Graph, p, q *NodeSet) *Query {
	return &Query{g: g, p: p, q: q}
}

// NewJoinQuery describes an n-way join over the query graph, evaluated with
// the planner's pick between PJ-i (the paper's best, under almost every
// workload) and AP; see NewPairQuery.
func NewJoinQuery(g *Graph, join *QueryGraph) *Query {
	return &Query{g: g, join: join}
}

// WithOptions returns a copy of the query carrying opts (nil selects the
// paper's defaults, as everywhere else).
func (qy *Query) WithOptions(opts *Options) *Query {
	cp := *qy
	cp.opts = opts
	return &cp
}

// WithMeasure returns a copy of the query evaluating the named registered
// proximity measure ("dht", "reach", "ppr", "simrank"; Measures lists
// them). It is shorthand for setting Options.MeasureName — a later
// WithOptions replaces it. The empty name selects "dht", the paper's
// measure; an unknown name fails Validate (and every entry point) with
// ErrUnknownMeasure.
func (qy *Query) WithMeasure(name string) *Query {
	cp := *qy
	o := orDefault(qy.opts)
	o.MeasureName = name
	cp.opts = &o
	return &cp
}

// Validate checks the query's inputs without executing it, returning the
// package's typed errors (wrapped, so use errors.Is). A bound query is
// checked against the graph its Service holds under its name now.
func (qy *Query) Validate() error {
	if qy == nil {
		return ErrNilGraph
	}
	g := qy.g
	if qy.svc != nil {
		var err error
		if g, err = qy.svc.s.Graph(qy.name); err != nil {
			return err
		}
	}
	if g == nil {
		return ErrNilGraph
	}
	pairForm := qy.p != nil || qy.q != nil
	if pairForm == (qy.join != nil) {
		return ErrQueryForm
	}
	if pairForm {
		for i, set := range [2]*NodeSet{qy.p, qy.q} {
			if set == nil || set.Len() == 0 {
				return fmt.Errorf("%w (%c)", ErrEmptyNodeSet, "PQ"[i])
			}
			if err := set.Validate(g); err != nil {
				return fmt.Errorf("%w: %v", ErrInvalidQueryGraph, err)
			}
		}
	} else if err := qy.join.Validate(g); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidQueryGraph, err)
	}
	q := qy.options()
	res, err := resolve(&q)
	if err != nil || q.Algorithm == "" {
		return err
	}
	class := plan.TwoWay
	if qy.join != nil {
		class = plan.NWay
	}
	err = plan.ValidateForced(class, q.Algorithm, res.Kernel.PlanMeasure)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, plan.ErrWrongClass) || errors.Is(err, plan.ErrWrongMeasure):
		return fmt.Errorf("%w: %v", ErrHintConflict, err)
	}
	return fmt.Errorf("%w: %v", ErrUnknownAlgorithm, err)
}

// options returns the query's options with the algorithm it runs: the
// hint's, else the options' own.
func (qy *Query) options() Options {
	q := orDefault(qy.opts)
	if qy.hints.Algorithm != "" {
		q.Algorithm = qy.hints.Algorithm
	}
	return q
}

// session validates the query and returns what every entry point executes
// on: the bound Service and graph name, or a throw-away serving session over
// the caller's graph (service.Ephemeral — caches off, one admission token)
// under the empty name; and the query's options. The one-shot call is thus
// the served request path by construction: the same resolver, planner,
// executor openers, budget and cancellation — there is no second copy to
// keep equal. wantJoin names the form the entry point needs.
func (qy *Query) session(wantJoin bool) (svc *service.Service, name string, q Options, err error) {
	if err = qy.Validate(); err != nil {
		return nil, "", q, err
	}
	switch {
	case wantJoin && qy.join == nil:
		return nil, "", q, fmt.Errorf("%w: n-way stream requested for a 2-way query", ErrQueryForm)
	case !wantJoin && qy.join != nil:
		return nil, "", q, fmt.Errorf("%w: 2-way stream requested for an n-way query", ErrQueryForm)
	case qy.svc != nil:
		return qy.svc.s, qy.name, qy.options(), nil
	}
	return service.Ephemeral(qy.g), "", qy.options(), nil
}

// Explain validates the query and returns the plan its streaming entry
// points (Results, Answers, OpenPairs, OpenAnswers) would run, without
// executing anything: the chosen algorithm, every registered candidate's
// cost estimate, and the stats snapshot the estimates were computed from.
// Streams have unknown demand up front, so the plan is sized for the
// initial batch (the resolved per-edge budget M) — exactly the demand those
// entry points plan for. The 2-way batch wrapper TopKPairs re-plans for its
// exact k, which can pick a different algorithm when k differs from M
// (e.g. B-BJ once k spans the candidate space); ExplainTopK prices that. A
// forced algorithm (Hints or Options) is validated and reported with Forced set
// alongside the full cost table.
func (qy *Query) Explain(ctx context.Context) (*QueryPlan, error) {
	return qy.explain(ctx, 0) // 0: the streams' demand
}

// ExplainTopK returns the plan the batch wrappers would run for demand k:
// for a 2-way query the plan TopKPairs(ctx, k) executes (priced for exactly
// k results), for an n-way query the same plan as Explain (TopK drains the
// answer stream, which is sized for the per-edge budget M regardless of k).
func (qy *Query) ExplainTopK(ctx context.Context, k int) (*QueryPlan, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	return qy.explain(ctx, k)
}

func (qy *Query) explain(ctx context.Context, k int) (*QueryPlan, error) {
	nway := qy != nil && qy.join != nil // a nil Query fails in session
	svc, name, q, err := qy.session(nway)
	if err != nil {
		return nil, err
	}
	if nway {
		sets, edges := setRefs(qy.join)
		return svc.ExplainJoinN(ctx, name, sets, edges, k, q)
	}
	return svc.ExplainJoin2(ctx, name, idsRef(qy.p), idsRef(qy.q), k, q)
}

// OpenPairs opens the rank-ordered pair stream of a 2-way query. The caller
// owns the handle: pull with Next or NextK, and Stop when done — Stop (or
// draining to exhaustion, or a ctx error) releases every pooled engine.
func (qy *Query) OpenPairs(ctx context.Context) (*PairStream, error) {
	svc, name, q, err := qy.session(false)
	if err != nil {
		return nil, err
	}
	st, err := svc.OpenJoin2(ctx, name, idsRef(qy.p), idsRef(qy.q), q)
	if err != nil {
		return nil, err
	}
	return &PairStream{st}, nil
}

// TopKPairs executes the 2-way query as a one-shot batch: the k best pairs
// in descending score order, evaluated by the planner's pick (or the forced
// Hints.Algorithm) — the hints-aware form of the package-level TopKPairs,
// and bit-identical to the first k elements of Results. It plans for
// exactly k and skips the stream's incremental F structure, whose
// O(|P|·|Q|) population a caller that never pulls past k would pay for
// nothing. When the deadline budget expired the correct-but-short prefix
// comes back alongside ErrBudgetExceeded, so callers can choose.
func (qy *Query) TopKPairs(ctx context.Context, k int) ([]PairResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	svc, name, q, err := qy.session(false)
	if err != nil {
		return nil, err
	}
	return svc.Join2(ctx, name, idsRef(qy.p), idsRef(qy.q), k, q)
}

// TopK executes the n-way query as a one-shot batch: the k best answers in
// descending aggregate order — the hints-aware form of the package-level
// TopK, bit-identical to the first k elements of Answers. Budget expiry as
// in TopKPairs.
func (qy *Query) TopK(ctx context.Context, k int) ([]Answer, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	svc, name, q, err := qy.session(true)
	if err != nil {
		return nil, err
	}
	sets, edges := setRefs(qy.join)
	return svc.JoinN(ctx, name, sets, edges, k, q)
}

// Results executes a 2-way query as a pull-based iterator: pairs arrive in
// descending score order, and breaking out of the loop (or cancelling ctx)
// stops the underlying join and releases its engines. A query error is
// yielded as the final (zero, err) element.
//
//	for pr, err := range query.Results(ctx) {
//		if err != nil { ... }
//		// use pr.Pair, pr.Score; break whenever enough
//	}
func (qy *Query) Results(ctx context.Context) iter.Seq2[PairResult, error] {
	return seq(func() (*PairStream, error) { return qy.OpenPairs(ctx) })
}

// OpenAnswers opens the rank-ordered answer stream of an n-way query; see
// OpenPairs for the handle contract.
func (qy *Query) OpenAnswers(ctx context.Context) (*AnswerStream, error) {
	svc, name, q, err := qy.session(true)
	if err != nil {
		return nil, err
	}
	sets, edges := setRefs(qy.join)
	st, err := svc.OpenJoinN(ctx, name, sets, edges, q)
	if err != nil {
		return nil, err
	}
	return &AnswerStream{st}, nil
}

// Answers executes an n-way query as a pull-based iterator — the n-way
// analogue of Results, with the same stop-and-release contract.
func (qy *Query) Answers(ctx context.Context) iter.Seq2[Answer, error] {
	return seq(func() (*AnswerStream, error) { return qy.OpenAnswers(ctx) })
}

// seq adapts a stream opener to a range-over-func iterator that stops the
// stream however the loop ends.
func seq[T any](open func() (*Stream[T], error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		s, err := open()
		if err != nil {
			yield(zero, err)
			return
		}
		defer s.Stop()
		for {
			v, ok, err := s.Next()
			if err != nil {
				yield(zero, err)
				return
			}
			if !ok || !yield(v, nil) {
				return
			}
		}
	}
}

// Stream is the pull handle of a query: results arrive one at a time in
// descending score order (prefix-identical to the batch ranking).
// Single-goroutine, like the engines it drives. It is the serving layer's
// stream handle under the facade's two contract differences: a pull after
// Stop is an error (ErrStreamStopped), and an expired budget is a clean,
// Truncated end rather than an error.
type Stream[T any] struct{ st *service.Stream[T] }

// PairStream is the handle of a 2-way query, AnswerStream of an n-way one.
type (
	PairStream   = Stream[PairResult]
	AnswerStream = Stream[Answer]
)

// Truncated reports whether the stream ended early because its deadline
// budget (Options.Budget) expired. The results pulled before the deadline
// are still bit-identical to the same-length prefix of the full ranking —
// the budget shortens the ranking, never corrupts it.
func (s *Stream[T]) Truncated() bool { return s.st.Truncated() }

// Next returns the next-best result. ok is false once the candidate space
// is exhausted or the budget expired (the stream auto-stops and further
// calls keep reporting ok=false); pulling after an explicit Stop returns
// ErrStreamStopped instead. A cancelled context surfaces as
// (zero, false, ctx.Err()) and also stops the stream.
func (s *Stream[T]) Next() (T, bool, error) {
	v, ok, err := s.st.Next()
	switch {
	case errors.Is(err, ErrBudgetExceeded):
		err = nil
	case err == nil && !ok && !s.st.Exhausted() && !s.st.Truncated():
		err = ErrStreamStopped
	}
	return v, ok, err
}

// NextK pulls up to k further results — the "give me the next k"
// continuation. Fewer than k are returned at exhaustion (on error, the
// results drained before it come back alongside); k must be positive.
func (s *Stream[T]) NextK(k int) ([]T, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	return join2.Drain(k, s.Next)
}

// Stop ends the stream and releases every pooled engine it holds. It is
// idempotent and always safe — including mid-stream, which is the whole
// point: early termination must not leak pool entries.
func (s *Stream[T]) Stop() { s.st.Stop() }
