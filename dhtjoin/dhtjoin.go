// Package dhtjoin is the public API of the multi-way join library over
// discounted hitting time (DHT), reproducing Zhang, Cheng, and Kao,
// "Evaluating Multi-Way Joins over Discounted Hitting Time", ICDE 2014.
//
// The library answers two query families over a directed weighted graph:
//
//   - Top-k 2-way joins: the k node pairs (p, q) ∈ P×Q with the highest DHT
//     scores h(p, q), evaluated with whichever of the served backward
//     algorithms (B-IDJ-Y, B-IDJ-X, B-BJ) the cost-based planner picks for
//     the workload — usually the pruning B-IDJ-Y.
//
//   - Top-k n-way joins: given a query graph over n node sets and a
//     monotonic aggregate f (MIN, SUM, …), the k n-tuples with the highest
//     aggregate of per-edge DHT scores, evaluated with the planner's pick
//     between PJ-i (the incremental partial join, usually) and AP.
//
// Every operator returns the bit-identical ranking, so the planner's choice
// moves only cost; Query.Explain reports the decision with per-candidate
// estimates, and Query.WithHints forces one.
//
// Both query families execute as context-aware pull streams of
// rank-ordered results (the algorithms are incremental by construction —
// B-IDJ confirms pairs as it deepens, PJ-i derives the (m+1)-th tuple from
// the m-th), so callers never have to pick k up front:
//
//	b := dhtjoin.NewBuilder(4, false)
//	b.AddEdge(0, 1, 1)
//	b.AddEdge(1, 2, 2)
//	b.AddEdge(2, 3, 1)
//	g := b.Build()
//	P := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0, 1})
//	Q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{2, 3})
//
//	query := dhtjoin.NewPairQuery(g, P, Q)
//	for r, err := range query.Results(ctx) { // iter.Seq2, descending score
//		if err != nil { ... }
//		use(r.Pair, r.Score)
//		if enough() {
//			break // the join stops deepening; engines are released
//		}
//	}
//
// OpenPairs/OpenAnswers return explicit handles with Next/NextK/Stop for
// "give me the next k" pagination. The batch calls remain as thin wrappers
// that drain a stream:
//
//	pairs, _ := dhtjoin.TopKPairs(g, P, Q, 3, nil)
//
// and the first m streamed results are always bit-identical to the
// one-shot top-m. See the examples/ directory for complete programs.
//
// A Service keeps named graphs loaded, with shared engine pools and a
// result cache; svc.PairQuery("g", P, Q) and svc.JoinQuery return the same
// Query bound to it.
//
// There is one execution path and one option set: an unbound query runs as
// a throw-away session of the serving layer (internal/service, the layer
// behind Service and njoind) with its caches off, and Options is that
// layer's request type, so a one-shot call is the served request path, not
// a second implementation kept equal to it.
package dhtjoin

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/rankjoin"
	"repro/internal/service"
	"repro/internal/simrank"
)

// Re-exported fundamental types. They alias the internal implementations, so
// values flow between the facade and the lower layers without conversion.
type (
	// NodeID identifies a graph node (dense integers in [0, NumNodes)).
	NodeID = graph.NodeID
	// Graph is the immutable CSR graph.
	Graph = graph.Graph
	// Builder accumulates edges and produces a Graph.
	Builder = graph.Builder
	// NodeSet is a named set of nodes (the R_i of a join).
	NodeSet = graph.NodeSet
	// Params are the general-form DHT coefficients (α, β, λ).
	Params = dht.Params
	// QueryGraph arranges node sets for an n-way join.
	QueryGraph = core.QueryGraph
	// Answer is one n-way join result tuple.
	Answer = core.Answer
	// Pair is one 2-way join pair.
	Pair = join2.Pair
	// PairResult is a scored 2-way join pair.
	PairResult = join2.Result
	// Aggregate is a monotonic function over query-edge scores.
	Aggregate = rankjoin.Aggregate
)

// Re-exported constructors.
var (
	// NewBuilder creates a graph builder (directed=false duplicates arcs).
	NewBuilder = graph.NewBuilder
	// NewNodeSet builds a named node set.
	NewNodeSet = graph.NewNodeSet
	// ReadText / WriteText serialize graphs in the line-oriented text format.
	ReadText  = graph.ReadText
	WriteText = graph.WriteText
	// DHTE / DHTLambda are the two published DHT parameterizations.
	DHTE      = dht.DHTE
	DHTLambda = dht.DHTLambda
	// Chain / Triangle / Star / Clique build the standard query graphs.
	Chain    = core.Chain
	Triangle = core.Triangle
	Star     = core.Star
	Clique   = core.Clique
	// NewQueryGraph builds a custom query graph; add edges with AddEdge.
	NewQueryGraph = core.NewQueryGraph
	// Aggregates.
	Sum Aggregate = rankjoin.Sum
	Min Aggregate = rankjoin.Min
	Max Aggregate = rankjoin.Max
	Avg Aggregate = rankjoin.Avg
)

// Options tune a join. They are the serving layer's request options, so a
// value means the same on every path — one-shot, Service, njoind — and its
// fields are documented once, on service.Query. The zero value (or a nil
// pointer) means the paper's defaults: DHTλ with λ = 0.2, accuracy ε = 1e-6
// (d = 8), MIN aggregation, per-edge budget m = 50, planner-picked
// algorithms.
type Options = service.Query

// Admission classes for Options.Priority (any other value fails the call):
// under contention a Service grants interactive requests ~3x more often than
// batch ones, never starving batch.
const (
	PriorityInteractive = service.PriorityInteractive
	PriorityBatch       = service.PriorityBatch
)

// PPR returns the Personalized-PageRank parameters for damping factor c,
// for use with MeasureName "ppr" (or "reach").
func PPR(c float64) Params { return dht.PPR(c) }

// orDefault returns *o, or the zero Options for nil.
func orDefault(o *Options) Options {
	if o == nil {
		return Options{}
	}
	return *o
}

// resolve runs the options through the system's one resolver.
func resolve(o *Options) (measure.Resolved, error) {
	q := orDefault(o)
	res, err := q.Resolve()
	if err != nil {
		// %w twice keeps the cause inspectable: errors.Is still matches
		// ErrUnknownMeasure through the ErrInvalidOptions wrapper.
		return res, fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return res, nil
}

// Measures lists the served proximity-measure names — the valid values
// of Options.MeasureName and Query.WithMeasure.
func Measures() []string { return measure.Names() }

// TopKPairs returns the k pairs of P×Q with the highest scores in
// descending order: NewPairQuery(g, p, q).WithOptions(opts).TopKPairs with
// a background context. Use the Query for early termination, "next k"
// continuation, cancellation or algorithm forcing.
func TopKPairs(g *Graph, p, q *NodeSet, k int, opts *Options) ([]PairResult, error) {
	return NewPairQuery(g, p, q).WithOptions(opts).TopKPairs(context.Background(), k)
}

// Score computes the truncated proximity score of (u, v) directly —
// h_d(u, v) under the default DHT measure, or whatever Options.MeasureName
// selects. A nil graph and a u or v outside the graph return ErrNilGraph and
// ErrNodeRange.
func Score(g *Graph, u, v NodeID, opts *Options) (float64, error) {
	if g == nil {
		return 0, ErrNilGraph
	}
	return score(context.Background(), service.Ephemeral(g), "", u, v, opts)
}

// score validates a Score call against the graph svc serves under name and
// runs it there: the one check both Score and Service.Score make.
func score(ctx context.Context, svc *service.Service, name string, u, v NodeID, opts *Options) (float64, error) {
	if _, err := resolve(opts); err != nil {
		return 0, err
	}
	g, err := svc.Graph(name)
	if err != nil {
		return 0, err
	}
	for _, x := range [2]NodeID{u, v} {
		if err := checkNode(g, x); err != nil {
			return 0, err
		}
	}
	return svc.Score(ctx, name, u, v, orDefault(opts))
}

// checkNode wraps ErrNodeRange for a node outside g.
func checkNode(g *Graph, v NodeID) error {
	if n := g.NumNodes(); v < 0 || int(v) >= n {
		return fmt.Errorf("%w: node %d, graph has %d nodes", ErrNodeRange, v, n)
	}
	return nil
}

// ScoresFrom computes the score of (u, v) for every node u at once with one
// backward walk to v. out must have length g.NumNodes() (or be nil to
// allocate). A nil graph, a v outside the graph and an out of another
// length return ErrNilGraph, ErrNodeRange and ErrBufferLength.
func ScoresFrom(g *Graph, v NodeID, opts *Options, out []float64) ([]float64, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	res, err := resolve(opts)
	if err != nil {
		return nil, err
	}
	if err := checkNode(g, v); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if out == nil {
		out = make([]float64, n)
	} else if len(out) != n {
		return nil, fmt.Errorf("%w: out has length %d, want %d", ErrBufferLength, len(out), n)
	}
	be, err := dht.NewBatchEngine(g, res.Params, res.D, 1)
	if err != nil {
		return nil, err
	}
	copy(out, be.BackWalkScoresBatch(res.Kernel.Walk, []NodeID{v}, res.D)[0])
	return out, nil
}

// TopK returns the k answers of the n-way join with the highest aggregate
// scores in descending order: NewJoinQuery(g, query).WithOptions(opts).TopK
// with a background context.
func TopK(g *Graph, query *QueryGraph, k int, opts *Options) ([]Answer, error) {
	return NewJoinQuery(g, query).WithOptions(opts).TopK(context.Background(), k)
}

// Steps exposes the Lemma-1 bound: the walk depth needed so that the
// truncation error is at most eps under params. It panics unless eps > 0
// (NaN included); Options.Epsilon is checked instead, as ErrEpsilon.
func Steps(params Params, eps float64) int { return params.StepsForEpsilon(eps) }

// SimRank support (the second measure named in the paper's conclusion).
// SimRank does not fit the walk form the join algorithms exploit, so it is
// not a served measure: it is computed by dense fixed-point iteration and
// joined via JoinLists, and the caller holds the matrix.
type (
	// SimRankMatrix holds converged all-pairs SimRank scores.
	SimRankMatrix = simrank.Matrix
	// SimRankOptions tune the fixed-point iteration.
	SimRankOptions = simrank.Options
)

// ComputeSimRank runs the SimRank fixed point (graphs up to a few thousand
// nodes; see the simrank package for the trade-off).
func ComputeSimRank(g *Graph, opts *SimRankOptions) (*SimRankMatrix, error) {
	return simrank.Compute(g, opts)
}

// JoinLists runs the top-k n-way rank join over externally supplied
// descending per-edge rankings — one list per query edge. This is how
// non-walk measures (e.g. SimRank via SimRankMatrix.EdgeList) reuse the
// multi-way machinery.
func JoinLists(query *QueryGraph, lists [][]PairResult, agg Aggregate, k int, distinct bool) ([]Answer, error) {
	return core.JoinLists(query, lists, agg, k, distinct)
}
