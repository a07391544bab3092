package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/rankjoin"
)

// Query carries one request's join options; the zero value (or a nil
// pointer at the library) means the paper's defaults — DHTλ with λ = 0.2,
// ε = 1e-6 (d = 8), MIN aggregation, per-edge budget m = 50 — applied by
// measure.Resolve. It is also the library's option set: dhtjoin.Options is
// this type, and njoin builds it too.
type Query struct {
	// Params are the DHT coefficients; zero means the measure's default.
	Params dht.Params
	// Epsilon bounds the truncation error |h − h_d| (Lemma 1); zero means
	// 1e-6. Ignored when D is set.
	Epsilon float64
	// D forces the truncation depth directly.
	D int
	// MeasureName selects a registered proximity measure by name ("dht",
	// "reach", "ppr", "simrank"); empty means "dht", the paper's measure.
	// An unknown name fails the request with measure.ErrUnknownMeasure.
	MeasureName string
	// Agg is the n-way aggregate; nil means Min. It is the one field the
	// cluster wire does not carry (scatter serves 2-way joins only).
	Agg rankjoin.Aggregate `json:"-"`
	// M is the initial per-edge budget of the n-way join; zero means 50.
	M int
	// Distinct drops n-way answers repeating a node across positions.
	Distinct bool
	// Algorithm forces the named registered executor instead of the
	// cost-based planner's pick: "B-IDJ-Y", "B-IDJ-X" or "B-BJ" for a pair
	// query, "PJ-i" or "AP" for an n-way one ("SR-SCAN" / "SR-AP" under
	// simrank). Results are bit-identical under any choice; an unknown name
	// or one of the wrong query class fails the request.
	Algorithm string
	// Priority selects the admission class: PriorityInteractive (the zero
	// value) or PriorityBatch; any other value fails the request. Batch
	// requests still make progress under load, just at a lower
	// weighted-fair share. Admission never changes results — only when a
	// request runs — and a one-shot library call runs alone on its own
	// session, so it never waits.
	Priority int
	// Budget is this query's wall-clock deadline budget; 0 defers to the
	// service's DefaultBudget. An expired budget truncates the query to the
	// ranking prefix produced so far rather than failing it: batch calls
	// return that prefix alongside ErrBudgetExceeded, and a dhtjoin stream
	// ends cleanly with Truncated() true. Score runs to completion.
	Budget time.Duration
}

// Priority classes for Query.Priority.
const (
	PriorityInteractive = classInteractive
	PriorityBatch       = classBatch
)

// Resolve runs the query's ranking-determining options through the system's
// one resolver, without executing anything. Every entry point resolves its
// query first, so Resolve is also where an unknown Priority is rejected.
func (q *Query) Resolve() (measure.Resolved, error) {
	if q.Priority != PriorityInteractive && q.Priority != PriorityBatch {
		return measure.Resolved{}, fmt.Errorf("service: unknown priority %d (want PriorityInteractive or PriorityBatch)", q.Priority)
	}
	return measure.Resolve(measure.Request{
		Measure: q.MeasureName, Params: q.Params, Epsilon: q.Epsilon, D: q.D,
		Agg: q.Agg, M: q.M,
	})
}

// pinned returns q with its resolution written back: canonical measure
// name, explicit params, depth and m (Agg, n-way only, stays). Resolving a
// pinned query is the identity, so a peer that receives one has no defaults
// left to apply — the form the cluster wire ships.
func (q Query) pinned(res measure.Resolved) Query {
	q.MeasureName, q.Params, q.D, q.Epsilon, q.M = res.Kernel.Name, res.Params, res.D, 0, res.M
	return q
}

// SetRef names the node set of one join position: either a set declared by
// the loaded graph (Name) or an explicit node list (IDs). Exactly one must
// be set.
type SetRef struct {
	Name string
	IDs  []graph.NodeID
}

// budgetContext applies the query's resolved wall-clock budget to ctx,
// installing ErrBudgetExceeded as the cancellation cause so budget expiry is
// distinguishable from a client cancel. The returned cancel must always be
// called. With no budget configured the context passes through unchanged.
func (s *Service) budgetContext(ctx context.Context, q *Query) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	b := q.Budget
	if b <= 0 {
		b = s.cfg.DefaultBudget
	}
	if s.cfg.MaxBudget > 0 && (b <= 0 || b > s.cfg.MaxBudget) {
		b = s.cfg.MaxBudget
	}
	if b <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, b, ErrBudgetExceeded)
}

// refKey serializes a resolved SetRef (a name, or the repeat-free id list
// resolveSet returned) for the result-cache key. Explicit id lists are
// written in full — a hashed key could collide and silently serve another
// request's results — and names are length-prefixed for the same reason:
// set names are caller-chosen strings, so a name containing the key
// delimiters could otherwise alias a different request's key.
func refKey(sb *strings.Builder, ref SetRef) {
	if ref.Name != "" {
		fmt.Fprintf(sb, "n%d:%s", len(ref.Name), ref.Name)
		return
	}
	fmt.Fprintf(sb, "i%d:", len(ref.IDs))
	for _, id := range ref.IDs {
		sb.WriteString(strconv.Itoa(int(id)))
		sb.WriteByte(',')
	}
}

// source is the executor stream a request runs: join2.Stream for pairs,
// core.TupleStream for tuples.
type source[T any] interface {
	Next() (T, bool, error)
	Release()
}

// clonePair and cloneAnswer deep-copy one result of each kind: cached
// rankings are immutable snapshots.
func clonePair(r join2.Result) join2.Result { return r }

func cloneAnswer(a core.Answer) core.Answer {
	return core.Answer{Nodes: append([]graph.NodeID(nil), a.Nodes...), Score: a.Score}
}

// joinSpec is what a join request ranks — a (P, Q) pair of sets or an n-way
// query graph. It is the only part of the request path the two join kinds
// do not share.
type joinSpec[T any] interface {
	class() plan.Class
	// route offers the request to the cluster router before local
	// resolution; only pair joins scatter.
	route(ctx context.Context, s *Service, graphName string, query Query) (*Stream[T], bool, error)
	// bind resolves the spec's sets against ge and completes rq: the
	// workload's sizes, the result kind, the start hook, and the spec's part
	// of the cache key ("" when the request must bypass the caches).
	bind(rq *request[T], ge *graphEntry) (string, error)
}

// request is one resolved join request: session, resolved parameters, the
// planner's view of it, and the prefix-cache key.
type request[T any] struct {
	svc   *Service
	sess  *session
	res   measure.Resolved
	query Query
	class plan.Class
	clone func(T) T     // clonePair or cloneAnswer
	work  plan.Workload // the spec's sizes; plan fills in the rest
	key   string        // empty when the request must bypass the caches

	// start opens the executor stream of the planned algorithm, threading
	// the walk-round cancellation poll into its join2.Config or core.Spec
	// next to the session's pool. initial sizes a pair stream's first
	// batch, and batch marks a
	// drain-exactly-initial caller: the stream then skips the incremental F
	// structure — whose O(|P|·|Q|) population a caller that never pulls
	// past the initial batch pays for nothing — and runs one plain top-k
	// join behind a doubling re-join. Tuple streams are sized by m alone.
	start func(algorithm string, cancel func() error, initial int, batch bool) (source[T], error)
}

// pairSpec is a 2-way join from p to q.
type pairSpec struct{ p, q SetRef }

func (pairSpec) class() plan.Class { return plan.TwoWay }

func (sp pairSpec) route(ctx context.Context, s *Service, graphName string, query Query) (*Join2Stream, bool, error) {
	return s.routed(ctx, graphName, sp.p, sp.q, query)
}

func (sp pairSpec) bind(rq *request[join2.Result], ge *graphEntry) (string, error) {
	pn, err := ge.resolveSet(sp.p)
	if err != nil {
		return "", err
	}
	qn, err := ge.resolveSet(sp.q)
	if err != nil {
		return "", err
	}
	rq.clone = clonePair
	rq.work.P, rq.work.Q = len(pn), len(qn)
	rq.start = func(algorithm string, cancel func() error, initial int, batch bool) (source[join2.Result], error) {
		sess := rq.sess
		cfg := join2.Config{
			Graph: sess.g, Params: rq.res.Params, D: rq.res.D, P: pn, Q: qn, Measure: rq.res.Kernel.Walk,
			Pool: sess.pool, Counters: &rq.svc.counters, Cancel: cancel,
		}
		return join2.NewNamedStream(algorithm, cfg, join2.StreamSpec{Initial: initial}, batch)
	}
	// The key deliberately excludes k: the cache stores ranking prefixes,
	// and the prefix invariant makes one entry serve every k up to its
	// length.
	var sb strings.Builder
	sb.WriteString("join2|")
	refKey(&sb, SetRef{Name: sp.p.Name, IDs: pn})
	sb.WriteByte('|')
	refKey(&sb, SetRef{Name: sp.q.Name, IDs: qn})
	return sb.String(), nil
}

// tupleSpec is an n-way join over sets connected by edges (which index into
// sets).
type tupleSpec struct {
	sets  []SetRef
	edges [][2]int
}

func (tupleSpec) class() plan.Class { return plan.NWay }

func (tupleSpec) route(context.Context, *Service, string, Query) (*JoinNStream, bool, error) {
	return nil, false, nil
}

func (sp tupleSpec) bind(rq *request[core.Answer], ge *graphEntry) (string, error) {
	nodeSets := make([]*graph.NodeSet, len(sp.sets))
	rq.work.SetSizes = make([]int, len(sp.sets))
	for i, ref := range sp.sets {
		ids, err := ge.resolveSet(ref)
		if err != nil {
			return "", err
		}
		name := ref.Name
		if name == "" {
			name = fmt.Sprintf("R%d", i)
		}
		nodeSets[i] = graph.NewNodeSet(name, ids)
		rq.work.SetSizes[i] = len(ids)
	}
	rq.clone = cloneAnswer
	rq.work.QueryEdges = sp.edges
	rq.start = func(algorithm string, cancel func() error, _ int, _ bool) (source[core.Answer], error) {
		sess := rq.sess
		qg := core.NewQueryGraph(nodeSets...)
		for _, e := range sp.edges {
			qg.AddEdge(e[0], e[1])
		}
		alg, err := core.NewNamed(algorithm, core.Spec{
			Graph: sess.g, Query: qg, Params: rq.res.Params, D: rq.res.D, Agg: rq.res.Agg,
			K:        1, // required by Validate; the stream itself is k-free
			Distinct: rq.query.Distinct, Measure: rq.res.Kernel.Walk,
			Pool: sess.pool, Counters: &rq.svc.counters, Cancel: cancel,
		}, rq.res.M)
		if err != nil {
			return nil, err
		}
		return alg.Stream()
	}
	// The aggregate enters the cache key by name, which identifies it only
	// for the built-in aggregates; a caller-supplied implementation could
	// share a name with a different function, so those requests bypass the
	// result cache rather than risk serving another aggregate's answers.
	// Like the 2-way key, k is excluded: the cache stores ranking prefixes.
	if !builtinAgg(rq.res.Agg) {
		return "", nil
	}
	var sb strings.Builder
	sb.WriteString("joinN|")
	for i, ref := range sp.sets {
		refKey(&sb, SetRef{Name: ref.Name, IDs: nodeSets[i].Nodes()})
		sb.WriteByte('|')
	}
	for _, e := range sp.edges {
		fmt.Fprintf(&sb, "e%d-%d,", e[0], e[1])
	}
	fmt.Fprintf(&sb, "|agg=%s|m=%d|dist=%v", rq.res.Agg.Name(), rq.res.M, rq.query.Distinct)
	return sb.String(), nil
}

// resolveJoin resolves the query, names, sets and session of one join
// request. A forced algorithm is validated here, before any cache can serve
// the request — a bad hint must fail even when the ranking itself is
// already cached.
func resolveJoin[T any](s *Service, graphName string, spec joinSpec[T], query Query) (*request[T], error) {
	res, err := query.Resolve()
	if err != nil {
		return nil, err
	}
	s.recordMeasure(res.Kernel.Name)
	if query.Algorithm != "" {
		if err := plan.ValidateForced(spec.class(), query.Algorithm, res.Kernel.PlanMeasure); err != nil {
			return nil, err
		}
	}
	ge, err := s.graphFor(graphName)
	if err != nil {
		return nil, err
	}
	rq := &request[T]{svc: s, res: res, query: query, class: spec.class()}
	key, err := spec.bind(rq, ge)
	if err != nil {
		return nil, err
	}
	if rq.sess, err = s.sessionFor(ge, res.Params, res.D, res.Kernel.Name); err != nil {
		return nil, err
	}
	if key != "" {
		p := res.Params
		rq.key = fmt.Sprintf("%s|p=%v,%v,%v|d=%d|mn=%s", key, p.Alpha, p.Beta, p.Lambda, res.D, res.Kernel.Name)
	}
	return rq, nil
}

// demand is the k a plan is priced and a stream is sized for: the caller's
// for pair joins (0 = the per-edge budget, as streams of unknown demand
// ask), always the per-edge budget for tuple joins.
func (rq *request[T]) demand(k int) int {
	if rq.class == plan.NWay || k <= 0 {
		return rq.res.M
	}
	return k
}

// plan runs the planner for demand k.
func (rq *request[T]) plan(k int) (*plan.Plan, error) {
	w, res := rq.work, rq.res
	w.Stats = rq.sess.g.Stats()
	w.K, w.M, w.D = rq.demand(k), res.M, res.D
	w.Measure = res.Kernel.PlanMeasure
	rq.svc.planReqs.Add(1)
	return plan.Decide(rq.class, w, rq.query.Algorithm)
}

// open acquires admission (honoring ctx) and starts the planned stream.
func (rq *request[T]) open(ctx context.Context, k int, batch bool) (*Stream[T], error) {
	svc, sess := rq.svc, rq.sess
	// Plan (or validate the forced algorithm) before admission: planning is
	// sub-microsecond against the graph's cached stats, and a rejected hint
	// must not consume an admission token.
	pl, err := rq.plan(k)
	if err != nil {
		return nil, err
	}
	// The budget clock starts here, covering the admission wait too: a
	// request that spends its whole budget queued is already late.
	qctx, cancel := svc.budgetContext(ctx, &rq.query)
	g, err := svc.adm.acquire(qctx, rq.query.Priority)
	if err != nil {
		return rq.unopened(qctx, cancel, admitErr(qctx, err))
	}
	var st source[T]
	if err = svc.cfg.Fault.Inject(fault.Checkout); err == nil {
		st, err = rq.start(pl.Algorithm, svc.cancelPoll(qctx), rq.demand(k), batch)
	}
	if err != nil {
		svc.adm.release(g)
		return rq.unopened(qctx, cancel, err)
	}
	svc.recordPick(pl.Algorithm)
	key := rq.key
	if sess.results == nil {
		key = "" // nowhere to publish, so the stream records nothing
	}
	return &Stream[T]{svc: svc, ctx: qctx, cancel: cancel, sess: sess, key: key, clone: rq.clone, st: st, grant: g}, nil
}

// unopened ends an open that failed before its stream existed. A budget
// already spent — queued at admission, or cancelled while the executor was
// priming — is not a failure but the shortest truncation: the caller gets a
// handle holding no engines and no token, Truncated from the start, whose
// first pull reports the expired budget exactly as a mid-stream expiry
// does. So batch, stream, NDJSON and one-shot callers all see the empty
// exact prefix, marked truncated.
func (rq *request[T]) unopened(qctx context.Context, cancel context.CancelFunc, err error) (*Stream[T], error) {
	if !errors.Is(err, ErrBudgetExceeded) {
		cancel()
		return nil, err
	}
	rq.svc.budgetTruncs.Add(1)
	return &Stream[T]{svc: rq.svc, ctx: qctx, cancel: cancel, clone: rq.clone, budgetHit: true}, nil
}

// served copies the first k results of a cached prefix, so cached rankings
// can never be mutated by a caller.
func (rq *request[T]) served(pre prefix, k int) []T {
	res := pre.results.([]T)
	out := make([]T, min(k, len(res)))
	for i := range out {
		out[i] = rq.clone(res[i])
	}
	return out
}

// cancelPoll builds the joiners' walk-round cancellation hook for a query
// context: it reports the context's cause (ErrBudgetExceeded on budget
// expiry, context.Canceled on client disconnect) and doubles as the
// walk-round fault-injection site.
func (s *Service) cancelPoll(ctx context.Context) func() error {
	return func() error {
		if err := s.cfg.Fault.Inject(fault.WalkRound); err != nil {
			return err
		}
		// Cause is nil while ctx is live, so this is a pure poll.
		return context.Cause(ctx)
	}
}

// admitErr maps an admission wait that died with the context to the richer
// cancellation cause (budget expiry vs. plain cancel); queue-full rejections
// pass through.
func admitErr(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// builtinAgg reports whether agg is one of the package-provided aggregates,
// whose Name() uniquely identifies it. (Interface equality is safe here:
// comparison against these comparable struct values never inspects a
// non-comparable dynamic type on the other side.)
func builtinAgg(agg rankjoin.Aggregate) bool {
	switch agg {
	case rankjoin.Sum, rankjoin.Min, rankjoin.Max, rankjoin.Avg:
		return true
	}
	return false
}
