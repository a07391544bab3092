// Package service is the long-lived query-serving layer over the join
// library: a Service owns a bounded registry of named graphs and, per
// (graph, params, d, measure) configuration, a session holding the
// shared resources that make cross-request reuse safe and worthwhile — a
// dht.EnginePool (engines and batch engines recycled across requests) and an
// LRU of recent top-k results. Every join runs on the goroutine that opened
// it, and a per-request admission controller caps the joins in flight, so
// concurrent requests cannot oversubscribe GOMAXPROCS.
//
// The one-shot dhtjoin calls are this same request path with the caches off
// (Ephemeral), so there is no second implementation to agree with; what the
// caches add never changes a result: the result LRU stores exactly what the
// join returned.
package service

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/store"
)

// Config sizes the service. The zero value selects the defaults.
type Config struct {
	// MaxGraphs bounds the graph registry; Load fails when full (graphs pin
	// O(|V|+|E|) memory each, so eviction behind a serving client's back
	// would be worse than an explicit error). Default 16.
	MaxGraphs int

	// MaxSessions bounds the per-configuration session cache; least
	// recently used sessions (their pool and result cache) are evicted.
	// Default 32.
	MaxSessions int

	// ResultCacheSize is each session's LRU capacity of recent top-k
	// results. 0 selects 128; negative disables result caching.
	ResultCacheSize int

	// MaxConcurrency caps the joins in flight across all concurrent
	// requests: the admission controller grants each request one token.
	// 0 selects GOMAXPROCS.
	MaxConcurrency int

	// TenantInFlight caps how many requests of one tenant may hold admission
	// tokens at once; further requests of that tenant wait even while tokens
	// are free, so one tenant cannot monopolize the join slots. 0 selects
	// MaxConcurrency (no per-tenant limit beyond the global one).
	TenantInFlight int

	// TenantQueue caps how many requests of one tenant may wait for
	// admission; beyond it, requests fail fast with ErrQuotaExceeded.
	// 0 selects 32.
	TenantQueue int

	// DefaultBudget is the wall-clock deadline budget applied to queries that
	// do not carry their own (Query.Budget). 0 means no default budget.
	DefaultBudget time.Duration

	// MaxBudget caps every query's budget, including queries with none.
	// 0 means no cap.
	MaxBudget time.Duration

	// ShedQueue is the admission-waiter count at which the HTTP layer starts
	// shedding load by clamping demanded k toward cached or cheap prefixes
	// (shedding engages only when no tokens are free AND at least ShedQueue
	// requests are already waiting). 0 selects 8; negative disables shedding.
	ShedQueue int

	// ShedK is the k that over-demanding batch requests are clamped to while
	// shedding (when no cached prefix can serve them). 0 selects 16.
	ShedK int

	// StreamWriteTimeout bounds each NDJSON line write of a streaming HTTP
	// response, so one stalled reader cannot pin pooled engines and admission
	// tokens forever. 0 selects 30s; negative disables the per-write deadline.
	StreamWriteTimeout time.Duration

	// Fault, when non-nil, injects faults (errors, latency, panics) at the
	// service's instrumented sites — engine checkout, walk rounds, response
	// writes. Test-only; nil (the default) is a strict no-op.
	Fault *fault.Injector

	// Store, when non-nil, makes the registry durable: loads write a
	// checksummed snapshot, edge updates append to a per-graph WAL, and drops
	// remove the on-disk state. It also changes MaxGraphs from a hard limit
	// into a residency bound — a full registry evicts the least recently used
	// graph from memory only (its durable state stays on disk and reloads
	// transparently on next use) instead of failing the load.
	Store *store.Store

	// Router, when non-nil, may claim 2-way join requests for cluster
	// scatter before local resolution (see Router). Requests under a
	// WithoutRouting context always evaluate locally.
	Router Router
}

const (
	defaultTenantQueue  = 32
	defaultShedQueue    = 8
	defaultShedK        = 16
	defaultWriteTimeout = 30 * time.Second
)

func (c Config) withDefaults() Config {
	// MaxGraphs, MaxSessions, and MaxConcurrency have no meaningful
	// "disabled" state (the service needs at least one of each), so any
	// value below 1 selects the default rather than, say, wedging the
	// session LRU eviction on an empty order slice. ResultCacheSize keeps its
	// documented negative-disables convention.
	if c.MaxGraphs < 1 {
		c.MaxGraphs = 16
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 32
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 128
	}
	if c.MaxConcurrency < 1 {
		c.MaxConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.TenantInFlight < 1 {
		c.TenantInFlight = c.MaxConcurrency
	}
	if c.TenantQueue < 1 {
		c.TenantQueue = defaultTenantQueue
	}
	if c.ShedQueue == 0 {
		c.ShedQueue = defaultShedQueue
	}
	if c.ShedK < 1 {
		c.ShedK = defaultShedK
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = defaultWriteTimeout
	}
	return c
}

// Service is the concurrent query-serving subsystem. All methods are safe
// for concurrent use.
type Service struct {
	cfg Config

	mu           sync.Mutex
	graphs       map[string]*graphEntry
	graphOrder   []string // most recently used last; drives store-backed eviction
	sessions     map[sessionKey]*session
	sessionOrder []sessionKey // most recently used last

	store  *store.Store // nil without persistence
	editMu sync.Mutex   // serializes edge updates (read-modify-write + WAL append)

	adm      *admission
	counters dht.Counters // lifetime engine work, fed by every session pool
	draining atomic.Bool  // set once by StartDrain; never cleared

	join2Reqs, joinNReqs, scoreReqs  atomic.Int64
	resultHits, resultMisses         atomic.Int64
	planReqs                         atomic.Int64
	budgetTruncs, shedClamps, panics atomic.Int64
	edgeUpdates                      atomic.Int64

	picksMu sync.Mutex
	picks   map[string]int64 // executions per chosen executor name

	measureMu      sync.Mutex
	measureQueries map[string]int64 // queries per resolved measure name
}

// New returns a Service sized by cfg (zero value = defaults).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:      cfg,
		store:    cfg.Store,
		graphs:   make(map[string]*graphEntry),
		sessions: make(map[sessionKey]*session),
		adm:      newAdmission(cfg.MaxConcurrency, cfg.TenantInFlight, cfg.TenantQueue),
		picks:    make(map[string]int64),

		measureQueries: make(map[string]int64),
	}
}

// Ephemeral returns the throw-away Service a one-shot dhtjoin call runs on:
// g alone, registered under the empty name, with no result LRU, and one
// admission token, so its one request is granted without waiting.
// Everything else is the served request path.
func Ephemeral(g *graph.Graph) *Service {
	s := New(Config{ResultCacheSize: -1, MaxConcurrency: 1})
	s.graphs[""] = &graphEntry{g: g}
	return s
}

// StartDrain moves the service into graceful drain: every subsequent query
// entry point fails fast with ErrDraining while already-open streams keep
// running to completion (or until their contexts are cancelled by the
// caller's drain budget). Idempotent; drain is one-way.
func (s *Service) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// admitGate is the shared fail-fast check at every query entry point.
func (s *Service) admitGate() error {
	if s.draining.Load() {
		return ErrDraining
	}
	return nil
}

// Shedding reports whether the service is overloaded enough that the HTTP
// layer should degrade demanded k: no admission tokens free and at least
// ShedQueue requests already waiting. Purely advisory — shedding never
// changes the scores of what is served, only how much of the ranking is.
func (s *Service) Shedding() bool {
	if s.cfg.ShedQueue < 0 {
		return false
	}
	free, waiting, _ := s.adm.snapshot()
	return free == 0 && waiting >= s.cfg.ShedQueue
}

// ShedK returns the k that over-demanding requests degrade to while shedding.
func (s *Service) ShedK() int { return s.cfg.ShedK }

// WriteTimeout returns the per-line write deadline for streaming responses
// (0 means disabled).
func (s *Service) WriteTimeout() time.Duration {
	if s.cfg.StreamWriteTimeout < 0 {
		return 0
	}
	return s.cfg.StreamWriteTimeout
}

// notePanic counts one recovered panic (stream pulls and HTTP handlers).
func (s *Service) notePanic() { s.panics.Add(1) }
