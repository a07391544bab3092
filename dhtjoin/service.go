package dhtjoin

import (
	"context"
	"fmt"
	"io"

	"repro/internal/service"
)

// Service is the library facade over the long-lived serving layer
// (internal/service): it owns a bounded registry of named graphs and, per
// (graph, params, d, measure) configuration, shared engine pools and a cache
// of recent top-k results. All methods are safe for concurrent use. The
// one-shot calls (TopKPairs / TopK / Score) are this same request path with
// the caches off, so a served result equals the one-shot result with the
// same Options.
//
// Use it when the same graphs are queried repeatedly — a server, a notebook
// session, a batch evaluator. One-shot calls remain the right tool for
// single queries.
type Service struct {
	s *service.Service
}

// ServiceConfig sizes a Service; the zero value selects the defaults (see
// internal/service.Config).
type ServiceConfig = service.Config

// ServiceStats is the monotone counter snapshot returned by Service.Stats.
type ServiceStats = service.Stats

// GraphInfo describes one loaded graph.
type GraphInfo = service.GraphInfo

// NewService returns an empty serving layer.
func NewService(cfg ServiceConfig) *Service {
	return &Service{s: service.New(cfg)}
}

// LoadGraph registers g under name together with the node sets joins may
// reference by name. Loading an existing name replaces it; loading a new
// name into a full registry fails.
func (s *Service) LoadGraph(name string, g *Graph, sets ...*NodeSet) error {
	return s.s.LoadGraph(name, g, sets)
}

// LoadGraphText reads a text-format graph (with its node sets) from r and
// registers it under name.
func (s *Service) LoadGraphText(name string, r io.Reader) error {
	_, err := s.s.LoadGraphText(name, r)
	return err
}

// DropGraph removes the named graph and its cached sessions (and, when the
// service was configured with a durable store, its on-disk state; a partial
// on-disk failure still stops the graph being served and is retryable).
func (s *Service) DropGraph(name string) bool {
	ok, _ := s.s.DropGraph(name)
	return ok
}

// Graphs lists the loaded graphs sorted by name.
func (s *Service) Graphs() []GraphInfo { return s.s.Graphs() }

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats { return s.s.Stats() }

// toQuery maps Options onto the serving layer's query form field by field
// (TestOptionsReachQuery pins that none is dropped); nil means all defaults.
func toQuery(o *Options) service.Query {
	if o == nil {
		return service.Query{}
	}
	q := service.Query{
		Params:      o.Params,
		Epsilon:     o.Epsilon,
		D:           o.D,
		MeasureName: o.MeasureName,
		Agg:         o.Agg,
		M:           o.M,
		Distinct:    o.Distinct,
		Tenant:      o.Tenant,
		Budget:      o.Budget,
	}
	if o.LowPriority {
		q.Priority = service.PriorityBatch
	}
	return q
}

// servedQuery is toQuery for the entry points that take bare Options:
// options that do not resolve fail with ErrInvalidOptions.
func servedQuery(o *Options) (service.Query, error) {
	_, err := o.resolve()
	return toQuery(o), err
}

// idsRef names a node set to the serving layer by its explicit members.
func idsRef(s *NodeSet) service.SetRef { return service.SetRef{IDs: s.Nodes()} }

// setRefs flattens a QueryGraph into the serving layer's sets-and-edges
// form.
func setRefs(join *QueryGraph) (sets []service.SetRef, edges [][2]int) {
	sets = make([]service.SetRef, join.NumSets())
	for i := range sets {
		sets[i] = idsRef(join.Set(i))
	}
	for _, e := range join.Edges() {
		edges = append(edges, [2]int{e.From, e.To})
	}
	return sets, edges
}

// pairArgs validates the inputs of a served 2-way call and maps them onto
// the serving layer's form.
func pairArgs(p, q *NodeSet, opts *Options) (pr, qr service.SetRef, query service.Query, err error) {
	if p == nil || p.Len() == 0 || q == nil || q.Len() == 0 {
		return pr, qr, query, ErrEmptyNodeSet
	}
	query, err = servedQuery(opts)
	return idsRef(p), idsRef(q), query, err
}

// joinArgs is pairArgs for n-way calls.
func joinArgs(join *QueryGraph, opts *Options) (sets []service.SetRef, edges [][2]int, query service.Query, err error) {
	if join == nil {
		return nil, nil, query, ErrInvalidQueryGraph
	}
	sets, edges = setRefs(join)
	query, err = servedQuery(opts)
	return sets, edges, query, err
}

// TopKPairs serves a top-k 2-way join on the named graph — the request path
// the package-level TopKPairs runs, with the session's caches on. ctx
// cancels the work (including the wait for admission); nil means
// Background.
func (s *Service) TopKPairs(ctx context.Context, graphName string, p, q *NodeSet, k int, opts *Options) ([]PairResult, error) {
	pr, qr, query, err := pairArgs(p, q, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	return s.s.Join2(ctx, graphName, pr, qr, k, query)
}

// OpenPairs serves a 2-way join as a rank-ordered pull stream through the
// service's shared engine pools: Next/NextK for "give me the next k", Stop
// to end early — the stream returns its engines to the session pool and
// publishes the drained prefix to the result cache, so a later TopKPairs
// for any k it covers is served without a join.
func (s *Service) OpenPairs(ctx context.Context, graphName string, p, q *NodeSet, opts *Options) (*ServicePairStream, error) {
	pr, qr, query, err := pairArgs(p, q, opts)
	if err != nil {
		return nil, err
	}
	return s.s.OpenJoin2(ctx, graphName, pr, qr, query)
}

// ServicePairStream is the streaming handle returned by Service.OpenPairs.
type ServicePairStream = service.Join2Stream

// ServiceAnswerStream is the streaming handle returned by Service.OpenAnswers.
type ServiceAnswerStream = service.JoinNStream

// TopK serves a top-k n-way join on the named graph; see TopKPairs.
func (s *Service) TopK(ctx context.Context, graphName string, query *QueryGraph, k int, opts *Options) ([]Answer, error) {
	sets, edges, q, err := joinArgs(query, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidK, k)
	}
	return s.s.JoinN(ctx, graphName, sets, edges, k, q)
}

// OpenAnswers serves an n-way join as a rank-ordered pull stream; see
// OpenPairs for the handle contract.
func (s *Service) OpenAnswers(ctx context.Context, graphName string, query *QueryGraph, opts *Options) (*ServiceAnswerStream, error) {
	sets, edges, q, err := joinArgs(query, opts)
	if err != nil {
		return nil, err
	}
	return s.s.OpenJoinN(ctx, graphName, sets, edges, q)
}

// Score serves the truncated score h_d(u, v) on the named graph, as the
// package-level Score does.
func (s *Service) Score(ctx context.Context, graphName string, u, v NodeID, opts *Options) (float64, error) {
	q, err := servedQuery(opts)
	if err != nil {
		return 0, err
	}
	return s.s.Score(ctx, graphName, u, v, q)
}

// ExplainPairs returns the plan a TopKPairs/OpenPairs call on the named
// graph would execute — the cost-based planner's decision, priced as a
// one-shot Explain prices it — without executing anything.
// k <= 0 prices the plan for the default streaming batch.
func (s *Service) ExplainPairs(ctx context.Context, graphName string, p, q *NodeSet, k int, opts *Options) (*QueryPlan, error) {
	pr, qr, query, err := pairArgs(p, q, opts)
	if err != nil {
		return nil, err
	}
	return s.s.ExplainJoin2(ctx, graphName, pr, qr, k, query)
}

// ExplainJoin is ExplainPairs for n-way queries.
func (s *Service) ExplainJoin(ctx context.Context, graphName string, query *QueryGraph, opts *Options) (*QueryPlan, error) {
	sets, edges, q, err := joinArgs(query, opts)
	if err != nil {
		return nil, err
	}
	return s.s.ExplainJoinN(ctx, graphName, sets, edges, 0, q)
}
