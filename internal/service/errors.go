package service

import "errors"

// Typed sentinels for the hardening layer. They live here (rather than in the
// public dhtjoin package) because dhtjoin imports internal/service; dhtjoin
// re-exports aliases of these exact values so errors.Is works across layers.
var (
	// ErrQuotaExceeded reports that the admission queue is full: the request
	// was rejected outright, since queueing it would only add latency to
	// every request behind it. Clients should back off and retry; HTTP maps
	// it to 429 with Retry-After.
	ErrQuotaExceeded = errors.New("service: admission queue full")

	// ErrBudgetExceeded reports that a query's wall-clock deadline budget
	// expired mid-join. It is the *cause* installed in the query context, so
	// streams distinguish it from a client cancel: budget expiry degrades to
	// a partial-but-correct ranking prefix marked truncated, while a client
	// cancel is just an aborted request.
	ErrBudgetExceeded = errors.New("service: deadline budget exceeded")

	// ErrDraining reports that the service has begun graceful drain and no
	// longer admits new queries; in-flight streams are allowed to finish
	// within the drain budget. HTTP maps it to 503 with Retry-After.
	ErrDraining = errors.New("service: draining, not admitting new queries")

	// ErrNodeLimit reports an edge update naming a node id further past the
	// graph's node count than its adds can introduce: an edit may grow the
	// graph by at most one node per add endpoint, to n + 2·len(adds) nodes.
	// HTTP maps it to 400.
	ErrNodeLimit = errors.New("service: edge update names a node past the growth limit")
)
