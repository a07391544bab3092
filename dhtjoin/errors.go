package dhtjoin

import (
	"errors"

	"repro/internal/measure"
	"repro/internal/service"
)

// Typed validation errors. The facade checks inputs up front and wraps these
// sentinels (with fmt.Errorf("%w: ...")), so callers can branch with
// errors.Is instead of matching message strings — and njoind can map them to
// HTTP 400 responses with a consistent JSON error envelope.
var (
	// ErrNilGraph reports a nil *Graph.
	ErrNilGraph = errors.New("dhtjoin: nil graph")

	// ErrEmptyNodeSet reports a nil or empty node set in a pair query.
	ErrEmptyNodeSet = errors.New("dhtjoin: node set is nil or empty")

	// ErrInvalidK reports a non-positive k.
	ErrInvalidK = errors.New("dhtjoin: k must be positive")

	// ErrInvalidQueryGraph reports an n-way query graph that fails
	// validation: fewer than two sets, an empty set, an edge whose endpoint
	// indexes no set (mismatched arity), duplicate or self-loop edges, or a
	// disconnected edge structure.
	ErrInvalidQueryGraph = errors.New("dhtjoin: invalid query graph")

	// ErrInvalidOptions reports Options that do not resolve: bad DHT
	// coefficients, a non-positive depth, or a negative per-edge budget.
	ErrInvalidOptions = errors.New("dhtjoin: invalid options")

	// ErrQueryForm reports a Query holding neither — or both — of the two
	// query forms (a (P, Q) pair of node sets, or an n-way query graph).
	ErrQueryForm = errors.New("dhtjoin: query needs exactly one of pair sets or a query graph")

	// ErrStreamStopped reports a pull from a stream after Stop.
	ErrStreamStopped = errors.New("dhtjoin: stream already stopped")

	// ErrUnknownAlgorithm reports a Hints.Algorithm naming no registered
	// executor (the valid names are Algorithms2Way / AlgorithmsNWay).
	ErrUnknownAlgorithm = errors.New("dhtjoin: unknown algorithm hint")

	// ErrHintConflict reports hints that contradict the query: a 2-way
	// algorithm forced onto an n-way query (or vice versa), or an algorithm
	// dedicated to a different measure.
	ErrHintConflict = errors.New("dhtjoin: hint conflicts with the query")

	// ErrNodeRange reports a node id outside [0, NumNodes) of the graph.
	ErrNodeRange = errors.New("dhtjoin: node id out of range")

	// ErrBufferLength reports a caller-provided output buffer whose length
	// is not the one the call fills.
	ErrBufferLength = errors.New("dhtjoin: output buffer has the wrong length")
)

// ErrUnknownMeasure reports an Options.MeasureName (or Query.WithMeasure
// argument) naming no registered proximity measure; Measures lists the
// valid names. It is the registry's own sentinel, re-exported so callers
// can branch with errors.Is without importing internal packages — njoind
// maps it to HTTP 400.
var ErrUnknownMeasure = measure.ErrUnknownMeasure

// ErrEpsilon reports an Options.Epsilon that is negative or not a finite
// number; njoind maps it to HTTP 400.
var ErrEpsilon = measure.ErrEpsilon

// Serving-layer sentinels, re-exported: they are the values the serving
// layer returns, so errors.Is matches them without an internal import.
var (
	// ErrQuotaExceeded reports a Service call rejected at admission because
	// the tenant's waiting queue is full (HTTP 429 on the wire).
	ErrQuotaExceeded = service.ErrQuotaExceeded

	// ErrBudgetExceeded reports a join stopped by its deadline budget
	// (Options.Budget, or the serving layer's default). Batch calls
	// (TopKPairs / TopK) return the prefix produced before the deadline
	// alongside this error — correct but shorter than k; streams instead
	// end cleanly with Truncated() reporting true.
	ErrBudgetExceeded = service.ErrBudgetExceeded

	// ErrDraining reports a Service that has begun graceful shutdown and no
	// longer admits new queries (HTTP 503 on the wire).
	ErrDraining = service.ErrDraining
)
