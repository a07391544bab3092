package dhtjoin

import (
	"context"
	"io"

	"repro/internal/service"
)

// Service is the library's handle on the long-lived serving layer
// (internal/service): a bounded registry of named graphs and, per (graph,
// params, d, measure), shared engine pools and a cache of recent top-k
// results. All methods are safe for concurrent use. Its joins are the
// Query values PairQuery and JoinQuery return; an unbound Query runs the
// same request path with the caches off, so results are equal. Use it when
// the same graphs are queried repeatedly.
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

// PairQuery describes a 2-way join from p to q on the graph s serves under
// graphName, run on s by every Query method; see NewPairQuery.
func (s *Service) PairQuery(graphName string, p, q *NodeSet) *Query {
	return &Query{svc: s, name: graphName, p: p, q: q}
}

// JoinQuery describes an n-way join over the query graph on the graph s
// serves under graphName; see PairQuery.
func (s *Service) JoinQuery(graphName string, join *QueryGraph) *Query {
	return &Query{svc: s, name: graphName, join: join}
}

// Score serves the truncated score h_d(u, v) on the named graph, with the
// package-level Score's checks and errors. ctx bounds the wait for
// admission; nil means Background.
func (s *Service) Score(ctx context.Context, graphName string, u, v NodeID, opts *Options) (float64, error) {
	return score(ctx, s.s, graphName, u, v, opts)
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
