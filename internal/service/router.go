package service

import (
	"context"

	"repro/internal/graph"
	"repro/internal/join2"
)

// This file is the service's cluster seam. The service itself knows nothing
// about rings, peers, or RPC: a Router (implemented by internal/cluster,
// which imports this package — never the reverse) may claim a 2-way join
// before local resolution and serve it as a merged stream of remote shard
// streams. Scatter requests arriving at a shard run through the same
// OpenJoin2 entry point with routing disabled via the context, so a shard
// executes locally instead of re-scattering.

// Router intercepts 2-way join requests for cluster scatter. Implementations
// must return streams whose emitted ranking is bit-identical to the local
// evaluation — same pairs, same float64 scores, same (score desc, tie asc)
// order.
type Router interface {
	// RouteJoin2 either claims the request (claimed=true, with a stream the
	// caller owns and must Release) or declines it (claimed=false), leaving
	// the service to evaluate locally. query arrives resolved (see
	// Query.pinned), so it can be shipped to peers as is. The returned
	// stream yields results in the caller's id space.
	RouteJoin2(ctx context.Context, graphName string, p, q SetRef, query Query) (st join2.Stream, claimed bool, err error)
	// RouterStats snapshots the router's monotone counters for /stats and
	// /metrics.
	RouterStats() RouterStats
}

// RouterStats is the cluster surface of Stats: scatter traffic, the corner
// bound's early stops, and placement/failover activity. All fields are
// monotone counters.
type RouterStats struct {
	// Coordinator side.
	ScatterQueries  int64 `json:"scatter_queries"`   // join2 requests served via scatter
	ShardStreams    int64 `json:"shard_streams"`     // shard streams opened (failover reopens included)
	ShardEarlyStops int64 `json:"shard_early_stops"` // shard streams halted by the corner bound before drain
	Failovers       int64 `json:"failovers"`         // dead replicas skipped mid-query

	// Shard side.
	ScatterServed int64 `json:"scatter_served"` // scatter requests executed for peers

	// Placement.
	PlacementsOut int64 `json:"placements_out"` // segments shipped to peers
	PlacementsIn  int64 `json:"placements_in"`  // segments accepted from peers
}

// SetRouter wires a cluster router after construction (the router needs the
// service to execute shard-local work, so neither can be built first with
// the other already in hand). Call it before serving begins; it is not
// synchronized against in-flight requests.
func (s *Service) SetRouter(r Router) { s.cfg.Router = r }

// noRouteKey marks a context whose joins must evaluate locally.
type noRouteKey struct{}

// WithoutRouting returns a context under which OpenJoin2/Join2Meta bypass
// the configured Router. Shard-side scatter execution uses it: the request
// was already routed once, and a shard re-scattering it would recurse.
func WithoutRouting(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, noRouteKey{}, true)
}

// routed reports whether the configured Router claims this request.
func (s *Service) routed(ctx context.Context, graphName string, p, q SetRef, query Query) (*Join2Stream, bool, error) {
	r := s.cfg.Router
	if r == nil {
		return nil, false, nil
	}
	if ctx == nil {
		ctx = context.Background()
	} else if ctx.Value(noRouteKey{}) != nil {
		return nil, false, nil
	}
	// Scatter stays walk-only: matrix measures (simrank) score through a
	// global fixed point no per-shard subgraph can reproduce, so those
	// queries always evaluate locally. A query that does not resolve falls
	// through to local resolution, which reports the error.
	res, err := query.Resolve()
	if err != nil || !res.Kernel.WalkBased {
		return nil, false, nil
	}
	// The router gets the pinned query: every shard, local or remote, then
	// evaluates the coordinator's resolution instead of its own defaults.
	st, claimed, err := r.RouteJoin2(ctx, graphName, p, q, query.pinned(res))
	if err != nil {
		return nil, true, err
	}
	if !claimed {
		return nil, false, nil
	}
	// The wrapper has no session, no grant, and no engines of its own — the
	// shards hold those — so Stop only releases the merged stream.
	return &Join2Stream{svc: s, ctx: ctx, st: st}, true, nil
}

// ResolveSet resolves a set reference against the named graph, returning
// node ids in the graph's (original) id space. The cluster coordinator uses
// it to materialize the query-side P set before range-partitioning it across
// shards.
func (s *Service) ResolveSet(graphName string, ref SetRef) ([]graph.NodeID, error) {
	ge, err := s.graphFor(graphName)
	if err != nil {
		return nil, err
	}
	return ge.resolveSet(ref)
}

// GraphData returns the named graph with its declared node sets and durable
// generation — the payload cluster placement encodes into a ship segment.
func (s *Service) GraphData(name string) (*graph.Graph, []*graph.NodeSet, uint64, error) {
	ge, err := s.graphFor(name)
	if err != nil {
		return nil, nil, 0, err
	}
	sets := make([]*graph.NodeSet, 0, len(ge.sets))
	for _, set := range ge.sets {
		sets = append(sets, set)
	}
	return ge.g, sets, ge.gen, nil
}
