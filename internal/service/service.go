// Package service is the long-lived query-serving layer over the join
// library: a Service owns a bounded registry of named graphs and, per
// (graph, params, d, relabel-mode) configuration, a session holding the
// shared resources that make cross-request reuse safe and worthwhile — a
// dht.EnginePool (engines and batch engines recycled across requests), a
// concurrency-safe score-column memo, the cached locality relabeling, and an
// LRU of recent top-k results. A per-request admission controller caps the
// total worker goroutines in flight, so concurrent requests cannot
// oversubscribe GOMAXPROCS.
//
// Results are bit-identical to the corresponding one-shot dhtjoin calls:
// both resolve their options through measure.Resolve, worker count and
// batch width never change a result (ties break on the canonical
// pair key), memo-served columns are byte-for-byte the columns a fresh walk
// would produce, and the result LRU stores exactly what the join returned.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/rankjoin"
	"repro/internal/store"
)

// Config sizes the service. The zero value selects the defaults.
type Config struct {
	// MaxGraphs bounds the graph registry; Load fails when full (graphs pin
	// O(|V|+|E|) memory each, so eviction behind a serving client's back
	// would be worse than an explicit error). Default 16.
	MaxGraphs int

	// MaxSessions bounds the per-configuration session cache; least
	// recently used sessions (their pool, memo, and result cache) are
	// evicted. Default 32.
	MaxSessions int

	// ResultCacheSize is each session's LRU capacity of recent top-k
	// results. 0 selects 128; negative disables result caching.
	ResultCacheSize int

	// MemoSize is each session's score-column memo capacity. 0 selects 256
	// (sharded; see dht.NewScoreMemo); negative disables the memo.
	MemoSize int

	// MaxConcurrency caps the total join workers in flight across all
	// concurrent requests (the admission controller grants each request
	// between 1 and its resolved worker count). 0 selects GOMAXPROCS.
	MaxConcurrency int

	// TenantInFlight caps how many requests of one tenant may hold admission
	// tokens at once; further requests of that tenant wait even while tokens
	// are free, so one tenant cannot monopolize the worker pool. 0 selects
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
	// session LRU eviction on an empty order slice. ResultCacheSize and
	// MemoSize keep their documented negative-disables convention.
	if c.MaxGraphs < 1 {
		c.MaxGraphs = 16
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 32
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 128
	}
	if c.MemoSize == 0 {
		c.MemoSize = 256
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

// Query carries one request's join options; the zero value means the
// paper's defaults (DHTλ with λ = 0.2, ε = 1e-6, MIN aggregation, m = 50),
// applied by measure.Resolve — the same resolver the one-shot dhtjoin calls
// and njoin run, so every way of asking resolves identically.
type Query struct {
	// Params are the DHT coefficients; zero means the measure's default.
	Params dht.Params
	// Epsilon bounds the truncation error; zero means 1e-6. Ignored when D
	// is set.
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
	// Workers requests a worker count; the admission controller may grant
	// fewer (results are identical at any count). 0/1 serial, negative
	// GOMAXPROCS.
	Workers int
	// BatchWidth tunes the batched walk kernel; 0 default, 1 disables.
	BatchWidth int
	// Relabel applies the locality-aware reordering (cached per graph).
	Relabel graph.RelabelMode
	// Algorithm forces the named registered executor ("B-IDJ-Y", "B-BJ",
	// "PJ-i", "AP", …) instead of the cost-based planner's pick. Results
	// are bit-identical under any choice; an unknown name or one of the
	// wrong query class fails the request.
	Algorithm string
	// Accuracy selects the planner's kernel contract: "" or "exact" (the
	// default) restricts plans to bit-identical executors, "fast" also
	// admits the certified fast-kernel executors — same emitted ranking
	// (every answer near the cut is re-verified through the exact kernel),
	// different cost. Any other spelling fails the request.
	Accuracy string
	// Tenant attributes the request to an admission-quota bucket; empty is
	// the anonymous shared bucket. Quotas never change results — only
	// whether and when a request is admitted.
	Tenant string
	// Priority selects the admission class: PriorityInteractive (the zero
	// value) or PriorityBatch. Batch requests still make progress under
	// load, just at a lower weighted-fair share.
	Priority int
	// Budget is this query's wall-clock deadline budget; 0 defers to the
	// service's DefaultBudget. An expired budget truncates the query to the
	// ranking prefix produced so far (marked truncated) rather than failing
	// it outright.
	Budget time.Duration
}

// Priority classes for Query.Priority.
const (
	PriorityInteractive = classInteractive
	PriorityBatch       = classBatch
)

// Resolve runs the query's ranking-determining options through the system's
// one resolver, without executing anything.
func (q *Query) Resolve() (measure.Resolved, error) {
	return measure.Resolve(measure.Request{
		Measure: q.MeasureName, Params: q.Params, Epsilon: q.Epsilon, D: q.D,
		Agg: q.Agg, M: q.M, Accuracy: q.Accuracy,
	})
}

// pinned returns q with its resolution written back: canonical measure
// name, explicit params, depth, m and accuracy. Resolving a pinned query is
// the identity, so a peer that receives one has no defaults left to apply —
// the form the cluster wire ships.
func (q Query) pinned(res measure.Resolved) Query {
	q.MeasureName, q.Params, q.D, q.Epsilon = res.Kernel.Name, res.Params, res.D, 0
	q.Agg, q.M, q.Accuracy = res.Agg, res.M, res.Accuracy.String()
	return q
}

// SetRef names the node set of one join position: either a set declared by
// the loaded graph (Name) or an explicit node list (IDs). Exactly one must
// be set.
type SetRef struct {
	Name string
	IDs  []graph.NodeID
}

// GraphInfo describes one registry entry.
type GraphInfo struct {
	Name  string   `json:"name"`
	Nodes int      `json:"nodes"`
	Edges int      `json:"edges"`
	Sets  []string `json:"sets"`

	// Generation counts the graph's durable state changes (snapshot base +
	// WAL records with a store attached; a plain in-memory edit counter
	// without one). 0 until the graph is first edited or persisted.
	Generation uint64 `json:"generation,omitempty"`
	// Evicted marks a persisted graph not currently resident in memory; it
	// reloads transparently on first use.
	Evicted bool `json:"evicted,omitempty"`
}

// Stats is a snapshot of the service's monotone work counters plus the
// registry/session gauges.
type Stats struct {
	Graphs   int `json:"graphs"`   // gauge: loaded graphs
	Sessions int `json:"sessions"` // gauge: live sessions

	Join2Requests int64 `json:"join2_requests"`
	JoinNRequests int64 `json:"joinn_requests"`
	ScoreRequests int64 `json:"score_requests"`

	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	MemoHits     int64 `json:"memo_hits"`
	MemoMisses   int64 `json:"memo_misses"`

	// Planner surface: decisions made, plan-cache hits, and how often each
	// executor was picked for execution (forced picks included).
	PlanRequests  int64            `json:"plan_requests"`
	PlanCacheHits int64            `json:"plan_cache_hits"`
	PlanPicks     map[string]int64 `json:"plan_picks,omitempty"`

	// MeasureQueries counts join/score queries per resolved measure name
	// ("dht", "ppr", "simrank", …) — the serving-side view of the measure
	// registry.
	MeasureQueries map[string]int64 `json:"measure_queries,omitempty"`

	Walks         int64 `json:"walks"`
	EdgeSweeps    int64 `json:"edge_sweeps"`
	FrontierEdges int64 `json:"frontier_edges"`

	// Certified fast-kernel surface: runs that executed on the fast kernel,
	// pairs re-verified through the bit-identical kernel, and the re-verify
	// excess over the demanded k (band pairs rescored beyond what was
	// emitted — the price of certification near ties).
	KernelPicks   int64 `json:"kernel_picks"`
	Reverified    int64 `json:"reverified"`
	FallbackPairs int64 `json:"fallback_pairs"`

	// Hardening surface: quota rejections, budget truncations, shed clamps,
	// and recovered panics are monotone counters; the admission gauges and
	// the drain flag describe the instantaneous load state.
	QuotaRejections   int64 `json:"quota_rejections"`
	BudgetTruncations int64 `json:"budget_truncations"`
	ShedClamps        int64 `json:"shed_clamps"`
	PanicsRecovered   int64 `json:"panics_recovered"`
	AdmissionFree     int   `json:"admission_free"`
	AdmissionWaiting  int   `json:"admission_waiting"`
	Draining          bool  `json:"draining"`

	// Durability surface: edge-update requests served, the store's
	// persistence counters (WAL appends, snapshots, recovery outcomes —
	// present only with a store attached), and each persisted graph's
	// current generation. A warm Generations map right after boot is how an
	// operator confirms recovery repopulated the registry; non-zero
	// WALTruncations or SnapshotFallbacks inside Persistence mean recovery
	// degraded a graph to its last consistent state.
	EdgeUpdates int64             `json:"edge_updates,omitempty"`
	Persistence *store.Counters   `json:"persistence,omitempty"`
	Generations map[string]uint64 `json:"generations,omitempty"`

	// Cluster surface: present only with a Router configured — scatter
	// queries coordinated, shard streams opened/early-stopped, failovers,
	// and placement traffic (see RouterStats).
	Cluster *RouterStats `json:"cluster,omitempty"`
}

// relabeledGraph pairs a reordered graph with its id map.
type relabeledGraph struct {
	g *graph.Graph
	r *graph.Relabeling
}

// graphEntry is one registry slot.
type graphEntry struct {
	g    *graph.Graph
	sets map[string]*graph.NodeSet
	gen  uint64 // durable generation (see GraphInfo.Generation)

	mu        sync.Mutex
	relabeled map[graph.RelabelMode]*relabeledGraph // built once per mode
}

// relabeledFor returns the cached reordering, building it on first use. The
// build runs under the entry lock: concurrent first requests for one mode
// must not both pay the O(|E| log |E|) rebuild, and later requests hit the
// map without rebuilding.
func (ge *graphEntry) relabeledFor(mode graph.RelabelMode) *relabeledGraph {
	if mode == graph.NoRelabel {
		return &relabeledGraph{g: ge.g}
	}
	ge.mu.Lock()
	defer ge.mu.Unlock()
	if rl, ok := ge.relabeled[mode]; ok {
		return rl
	}
	rg, r := graph.Relabel(ge.g, mode)
	rl := &relabeledGraph{g: rg, r: r}
	if ge.relabeled == nil {
		ge.relabeled = make(map[graph.RelabelMode]*relabeledGraph, 2)
	}
	ge.relabeled[mode] = rl
	return rl
}

// sessionKey identifies one shared-resource session. The graph pointer (not
// the registry name) keys it, so reloading a name invalidates naturally and
// two names sharing a graph share a session. The canonical measure name is a
// key dimension: a measure's memoized state (result prefixes, plan
// decisions, calibration) must never serve another measure's queries.
type sessionKey struct {
	g       *graph.Graph
	params  dht.Params
	d       int
	relabel graph.RelabelMode
	measure string
}

// session owns the shared per-configuration resources.
type session struct {
	g       *graph.Graph      // possibly relabeled
	rl      *graph.Relabeling // nil when not relabeled
	pool    *dht.EnginePool   // engines + batch engines, recycled across requests
	memo    *dht.ScoreMemo    // concurrency-safe score columns
	results *resultLRU        // recent top-k results, original id space
	plans   *planCache        // planner decisions, keyed like the result LRU (+k)
	calib   *plan.Calibration // observed-cost feedback from bit-identical runs
	// calibFast is the fast-kernel bucket: calibration is keyed by kernel
	// contract because the certified executors mix cheap float32-lane
	// sweeps with exact rescores — folding their counters into the exact
	// bucket would skew the cost unit every exact plan is priced with.
	calibFast *plan.Calibration
}

// calibFor selects the session's calibration bucket for a kernel contract.
func (sess *session) calibFor(certified bool) *plan.Calibration {
	if certified {
		return sess.calibFast
	}
	return sess.calib
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

	join2Reqs, joinNReqs, scoreReqs    atomic.Int64
	resultHits, resultMisses           atomic.Int64
	retiredMemoHits, retiredMemoMisses atomic.Int64 // from evicted sessions
	planReqs, planCacheHits            atomic.Int64
	budgetTruncs, shedClamps, panics   atomic.Int64
	edgeUpdates                        atomic.Int64

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

// planFor runs the planner for one request through the session's plan
// cache: cached decisions are reused while the calibration generation they
// were stamped with still holds, so a session recalibrated by observed
// counters re-plans with the fresh cost unit. Forced algorithms skip the
// cache (validation is the whole cost).
func (s *Service) planFor(sess *session, class plan.Class, baseKey string, w plan.Workload, forced string) (*plan.Plan, error) {
	s.planReqs.Add(1)
	// Plans are priced (and their cache entries validated) with the bucket
	// their execution will feed — one rule, calibFor, at both ends.
	cal := sess.calibFor(runsCertified(class, w, forced))
	w.Calib = cal
	if forced != "" {
		return plan.Decide(class, w, forced)
	}
	var key string
	var gen uint64
	if baseKey != "" {
		// baseKey embeds the accuracy mode (queryKey), so exact and fast
		// decisions never alias one cache slot.
		key = fmt.Sprintf("%s|plan-k=%d", baseKey, w.K)
		gen = cal.Gen()
		if pl, ok := sess.plans.get(key, gen); ok {
			s.planCacheHits.Add(1)
			return pl, nil
		}
	}
	pl, err := plan.Decide(class, w, "")
	if err != nil {
		return nil, err
	}
	if key != "" {
		sess.plans.put(key, gen, pl)
	}
	return pl, nil
}

// runsCertified reports whether a request can execute on the certified fast
// kernel: a forced certified executor, or fast accuracy on a class and
// measure that has one (no n-way executor is certified, so n-way plans are
// always priced with the exact bucket their runs feed).
func runsCertified(class plan.Class, w plan.Workload, forced string) bool {
	if forced != "" {
		d, _ := plan.Lookup(forced)
		return d.Certified
	}
	if w.Accuracy != plan.Fast {
		return false
	}
	for _, d := range plan.Executors(class) {
		if d.Certified && d.Measure == w.Measure {
			return true
		}
	}
	return false
}

// recordPick counts one execution of the chosen executor.
func (s *Service) recordPick(name string) {
	s.picksMu.Lock()
	s.picks[name]++
	s.picksMu.Unlock()
}

// recordMeasure counts one query against the resolved measure.
func (s *Service) recordMeasure(name string) {
	s.measureMu.Lock()
	s.measureQueries[name]++
	s.measureMu.Unlock()
}

// LoadGraph registers g under name with its node sets. Loading an existing
// name replaces it (old sessions die with their graph pointer). With a store
// attached the graph is made durable first — the load fails without changing
// served state if the snapshot cannot be written — and a full registry
// evicts its least recently used resident instead of failing; without one,
// loading a new name into a full registry fails.
func (s *Service) LoadGraph(name string, g *graph.Graph, sets []*graph.NodeSet) error {
	if name == "" {
		return fmt.Errorf("service: graph name must be non-empty")
	}
	if g == nil {
		return fmt.Errorf("service: nil graph")
	}
	byName := make(map[string]*graph.NodeSet, len(sets))
	for _, set := range sets {
		if err := set.Validate(g); err != nil {
			return err
		}
		byName[set.Name] = set
	}
	var gen uint64
	if s.store != nil {
		var err error
		if gen, err = s.store.Put(name, g, sets); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, replacing := s.graphs[name]
	if !replacing && len(s.graphs) >= s.cfg.MaxGraphs {
		if s.store == nil {
			return fmt.Errorf("service: graph registry full (%d); drop one first", s.cfg.MaxGraphs)
		}
		s.evictGraphLocked(name)
	}
	s.graphs[name] = &graphEntry{g: g, sets: byName, gen: gen}
	s.touchGraphLocked(name)
	if replacing {
		s.purgeSessionsLocked(old.g)
	}
	return nil
}

// LoadGraphText reads a text-format graph (with node sets) and registers it,
// returning the registered entry's description. The info is computed from the
// parsed graph itself — not from a post-load registry lookup — so a
// concurrent DropGraph or replacing load cannot make a successful load look
// like the graph vanished.
func (s *Service) LoadGraphText(name string, r io.Reader) (GraphInfo, error) {
	g, sets, err := graph.ReadText(r)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := s.LoadGraph(name, g, sets); err != nil {
		return GraphInfo{}, err
	}
	info := GraphInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.store != nil {
		info.Generation = s.store.Gen(name)
	}
	for _, set := range sets {
		info.Sets = append(info.Sets, set.Name)
	}
	sort.Strings(info.Sets)
	return info, nil
}

// DropGraph removes the named graph — its registry entry, its sessions, and
// (with a store attached) its on-disk state — reporting whether it existed.
// The graph stops being served even when the durable removal fails partway;
// the error is surfaced so the caller can retry the drop, and recovery
// treats a partially deleted graph as either fully present or fully absent.
func (s *Service) DropGraph(name string) (bool, error) {
	var derr error
	existed := false
	if s.store != nil && s.store.Has(name) {
		existed = true
		derr = s.store.Delete(name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ge, ok := s.graphs[name]; ok {
		existed = true
		delete(s.graphs, name)
		s.removeGraphOrderLocked(name)
		s.purgeSessionsLocked(ge.g)
	}
	return existed, derr
}

// purgeSessionsLocked drops every session keyed on g, retiring their memo
// stats so Stats counters stay monotone.
func (s *Service) purgeSessionsLocked(g *graph.Graph) {
	kept := s.sessionOrder[:0]
	for _, key := range s.sessionOrder {
		if key.g != g {
			kept = append(kept, key)
			continue
		}
		s.retireSessionLocked(key)
	}
	s.sessionOrder = kept
}

// retireSessionLocked removes one session, folding its memo counters into
// the retired accumulators.
func (s *Service) retireSessionLocked(key sessionKey) {
	if sess, ok := s.sessions[key]; ok {
		s.retiredMemoHits.Add(sess.memo.Hits())
		s.retiredMemoMisses.Add(sess.memo.Misses())
		delete(s.sessions, key)
	}
}

// Graphs lists the registry sorted by name — resident graphs plus any
// persisted graphs currently evicted from memory (marked Evicted; they
// reload on first use).
func (s *Service) Graphs() []GraphInfo {
	s.mu.Lock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for name, ge := range s.graphs {
		info := GraphInfo{Name: name, Nodes: ge.g.NumNodes(), Edges: ge.g.NumEdges(), Generation: ge.gen}
		for sn := range ge.sets {
			info.Sets = append(info.Sets, sn)
		}
		sort.Strings(info.Sets)
		out = append(out, info)
	}
	resident := make(map[string]bool, len(s.graphs))
	for name := range s.graphs {
		resident[name] = true
	}
	s.mu.Unlock()
	if s.store != nil {
		for _, name := range s.store.Names() {
			if resident[name] {
				continue
			}
			nodes, edges, gen, sets, ok := s.store.Info(name)
			if !ok {
				continue
			}
			out = append(out, GraphInfo{Name: name, Nodes: nodes, Edges: edges, Sets: sets, Generation: gen, Evicted: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// graphFor resolves a registry name, lazily reloading a persisted graph that
// was evicted from memory.
func (s *Service) graphFor(name string) (*graphEntry, error) {
	s.mu.Lock()
	if ge, ok := s.graphs[name]; ok {
		s.touchGraphLocked(name)
		s.mu.Unlock()
		return ge, nil
	}
	s.mu.Unlock()
	if s.store == nil || !s.store.Has(name) {
		return nil, fmt.Errorf("service: no graph %q loaded", name)
	}
	return s.reloadGraph(name)
}

// sessionFor returns (creating if needed) the shared session for the
// resolved configuration, refreshing its LRU recency.
func (s *Service) sessionFor(ge *graphEntry, params dht.Params, d int, mode graph.RelabelMode, measureName string) (*session, error) {
	key := sessionKey{g: ge.g, params: params, d: d, relabel: mode, measure: measureName}
	s.mu.Lock()
	if sess, ok := s.sessions[key]; ok {
		s.touchSessionLocked(key)
		s.mu.Unlock()
		return sess, nil
	}
	s.mu.Unlock()

	// Build outside the lock: the relabel rebuild is O(|E| log |E|).
	rl := ge.relabeledFor(mode)
	pool, err := dht.NewEnginePool(rl.g, params, d)
	if err != nil {
		return nil, err
	}
	pool.Sink = &s.counters
	sess := &session{
		g:         rl.g,
		rl:        rl.r,
		pool:      pool,
		memo:      newSessionMemo(s.cfg.MemoSize),
		results:   newResultLRU(s.cfg.ResultCacheSize),
		plans:     newPlanCache(planCacheCap),
		calib:     &plan.Calibration{},
		calibFast: &plan.Calibration{},
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.sessions[key]; ok {
		s.touchSessionLocked(key) // lost the build race; share the winner
		return prev, nil
	}
	// The graph may have been dropped (or replaced under its name) while the
	// session was being built lock-free. Caching the session then would pin
	// the dead graph's memory in an entry no future request can reach — the
	// request in flight still gets its session, it just isn't retained.
	if !s.graphLiveLocked(ge.g) {
		return sess, nil
	}
	if len(s.sessionOrder) >= s.cfg.MaxSessions {
		oldest := s.sessionOrder[0]
		s.sessionOrder = s.sessionOrder[1:]
		s.retireSessionLocked(oldest)
	}
	s.sessions[key] = sess
	s.sessionOrder = append(s.sessionOrder, key)
	return sess, nil
}

// graphLiveLocked reports whether g still backs a registry entry (caller
// holds s.mu). O(MaxGraphs), which is small by construction.
func (s *Service) graphLiveLocked(g *graph.Graph) bool {
	for _, ge := range s.graphs {
		if ge.g == g {
			return true
		}
	}
	return false
}

// touchSessionLocked moves key to the MRU position (caller holds s.mu and
// has verified presence).
func (s *Service) touchSessionLocked(key sessionKey) {
	for i, k := range s.sessionOrder {
		if k == key {
			copy(s.sessionOrder[i:], s.sessionOrder[i+1:])
			s.sessionOrder[len(s.sessionOrder)-1] = key
			return
		}
	}
}

// newSessionMemo builds a session memo honoring the disable convention.
func newSessionMemo(size int) *dht.ScoreMemo {
	if size < 0 {
		return nil
	}
	return dht.NewScoreMemo(size)
}

// resolveSet maps a SetRef to node ids in the entry's graph.
func (ge *graphEntry) resolveSet(ref SetRef) ([]graph.NodeID, error) {
	switch {
	case ref.Name != "" && ref.IDs != nil:
		return nil, fmt.Errorf("service: set ref must have either a name or ids, not both")
	case ref.Name != "":
		set, ok := ge.sets[ref.Name]
		if !ok {
			return nil, fmt.Errorf("service: graph declares no node set %q", ref.Name)
		}
		return set.Nodes(), nil
	case len(ref.IDs) > 0:
		n := ge.g.NumNodes()
		for _, id := range ref.IDs {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("service: node %d out of range [0,%d)", id, n)
			}
		}
		return ref.IDs, nil
	}
	return nil, fmt.Errorf("service: empty set ref")
}

// refKey serializes a SetRef for the result-cache key. Explicit id lists are
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

// resultKind is what the generic request path must know about a result
// type: how to map its node ids back through a relabeling, and how to deep
// copy it (cached rankings are immutable snapshots).
type resultKind[T any] struct {
	toOld func(rl *graph.Relabeling, v *T)
	clone func(v T) T
}

var pairKind = &resultKind[join2.Result]{
	toOld: func(rl *graph.Relabeling, r *join2.Result) {
		r.Pair.P, r.Pair.Q = rl.ToOld(r.Pair.P), rl.ToOld(r.Pair.Q)
	},
	clone: func(r join2.Result) join2.Result { return r },
}

var answerKind = &resultKind[core.Answer]{
	toOld: func(rl *graph.Relabeling, a *core.Answer) {
		for i := range a.Nodes {
			a.Nodes[i] = rl.ToOld(a.Nodes[i])
		}
	},
	clone: func(a core.Answer) core.Answer {
		return core.Answer{Nodes: append([]graph.NodeID(nil), a.Nodes...), Score: a.Score}
	},
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

// runEnv is the per-run execution environment a start hook threads into its
// join2.Config or core.Spec, next to the session's pool and memo.
type runEnv struct {
	workers int           // admission-granted worker count
	ctrs    *dht.Counters // run-scoped; feeds the session calibration on Stop
	cancel  func() error  // walk-round cancellation poll
}

// request is one resolved join request: session, resolved parameters, the
// planner's view of it, and the prefix-cache key.
type request[T any] struct {
	svc   *Service
	sess  *session
	res   measure.Resolved
	query Query
	class plan.Class
	kind  *resultKind[T]
	work  plan.Workload // K is filled per demand
	key   string        // empty when the request must bypass the caches

	// start opens the executor stream of the planned algorithm. initial
	// sizes a pair stream's first batch, and batch marks a
	// drain-exactly-initial caller: the stream then skips the incremental F
	// structure — whose O(|P|·|Q|) population a caller that never pulls
	// past the initial batch pays for nothing — and runs one plain top-k
	// join behind a doubling re-join. Tuple streams are sized by m alone.
	start func(algorithm string, env runEnv, initial int, batch bool) (source[T], error)
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
	rq.kind = pairKind
	rq.work.P, rq.work.Q = len(pn), len(qn)
	rq.start = func(algorithm string, env runEnv, initial int, batch bool) (source[join2.Result], error) {
		sess := rq.sess
		cfg := join2.Config{
			Graph: sess.g, Params: rq.res.Params, D: rq.res.D, P: pn, Q: qn, Measure: rq.res.Kernel.Walk,
			Workers: env.workers, BatchWidth: rq.query.BatchWidth,
			Pool: sess.pool, Memo: sess.memo, Counters: env.ctrs, Cancel: env.cancel,
		}
		if sess.rl != nil {
			cfg.P, cfg.Q = sess.rl.MapToNew(pn), sess.rl.MapToNew(qn)
		}
		return join2.NewNamedStream(algorithm, cfg, join2.StreamSpec{Initial: initial}, batch)
	}
	// The key deliberately excludes k: the cache stores ranking prefixes,
	// and the prefix invariant makes one entry serve every k up to its
	// length.
	var sb strings.Builder
	sb.WriteString("join2|")
	refKey(&sb, sp.p)
	sb.WriteByte('|')
	refKey(&sb, sp.q)
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
	nodeSets := make([]*graph.NodeSet, len(sp.sets)) // original id space
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
	rq.kind = answerKind
	rq.work.QueryEdges = sp.edges
	rq.start = func(algorithm string, env runEnv, _ int, _ bool) (source[core.Answer], error) {
		sess := rq.sess
		querySets := nodeSets
		if sess.rl != nil {
			querySets = make([]*graph.NodeSet, len(nodeSets))
			for i, set := range nodeSets {
				querySets[i] = sess.rl.MapSetToNew(set)
			}
		}
		qg := core.NewQueryGraph(querySets...)
		for _, e := range sp.edges {
			qg.AddEdge(e[0], e[1])
		}
		alg, err := core.NewNamed(algorithm, core.Spec{
			Graph: sess.g, Query: qg, Params: rq.res.Params, D: rq.res.D, Agg: rq.res.Agg,
			K:        1, // required by Validate; the stream itself is k-free
			Distinct: rq.query.Distinct, Measure: rq.res.Kernel.Walk,
			Workers: env.workers, BatchWidth: rq.query.BatchWidth,
			Pool: sess.pool, Memo: sess.memo, Counters: env.ctrs, Cancel: env.cancel,
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
	for _, ref := range sp.sets {
		refKey(&sb, ref)
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
	if rq.sess, err = s.sessionFor(ge, res.Params, res.D, query.Relabel, res.Kernel.Name); err != nil {
		return nil, err
	}
	rq.work.Stats = rq.sess.g.Stats()
	rq.work.M, rq.work.D = res.M, res.D
	rq.work.Measure, rq.work.Accuracy = res.Kernel.PlanMeasure, res.Accuracy
	rq.work.Workers, rq.work.BatchWidth = query.Workers, query.BatchWidth
	if key != "" {
		// Accuracy is part of the key even though certified plans emit the
		// same ranking: the plan cache is keyed off this string, and an
		// exact-accuracy request must never be served a plan whose
		// eligibility set included the certified executors (or vice versa).
		p := res.Params
		rq.key = fmt.Sprintf("%s|p=%v,%v,%v|d=%d|mn=%s|acc=%s", key, p.Alpha, p.Beta, p.Lambda, res.D, res.Kernel.Name, res.Accuracy)
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

// plan runs the planner for demand k through the session's plan cache.
func (rq *request[T]) plan(k int) (*plan.Plan, error) {
	w := rq.work
	w.K = rq.demand(k)
	return rq.svc.planFor(rq.sess, rq.class, rq.key, w, rq.query.Algorithm)
}

// open acquires admission (honoring ctx) and starts the planned stream.
func (rq *request[T]) open(ctx context.Context, k int, batch bool) (*Stream[T], error) {
	svc, sess := rq.svc, rq.sess
	// Plan (or validate the forced algorithm) before admission: planning is
	// sub-microsecond against the graph's cached stats, and a rejected hint
	// must not consume admission tokens.
	pl, err := rq.plan(k)
	if err != nil {
		return nil, err
	}
	// The budget clock starts here, covering the admission wait too: a
	// request that spends its whole budget queued is already late.
	qctx, cancel := svc.budgetContext(ctx, &rq.query)
	g, err := svc.adm.acquire(qctx, rq.query.Tenant, rq.query.Priority, resolveWorkers(rq.query.Workers))
	if err != nil {
		cancel()
		return nil, admitErr(qctx, err)
	}
	// The run-scoped counters feed the session calibration on Stop and
	// forward every increment to the service's lifetime totals.
	ctrs := &dht.Counters{Chain: &svc.counters}
	var st source[T]
	if err = svc.cfg.Fault.Inject(fault.Checkout); err == nil {
		st, err = rq.start(pl.Algorithm, runEnv{workers: g.n, ctrs: ctrs, cancel: svc.cancelPoll(qctx)}, rq.demand(k), batch)
	}
	if err != nil {
		svc.adm.release(g)
		cancel()
		return nil, err
	}
	svc.recordPick(pl.Algorithm)
	return &Stream[T]{svc: svc, ctx: qctx, cancel: cancel, sess: sess, key: rq.key, kind: rq.kind, st: st, grant: g,
		ctrs: ctrs, calib: sess.calibFor(planCertified(pl))}, nil
}

// served copies the first k results of a cached prefix, so cached rankings
// can never be mutated by a caller.
func (rq *request[T]) served(pre prefix, k int) []T {
	res := pre.results.([]T)
	out := make([]T, min(k, len(res)))
	for i := range out {
		out[i] = rq.kind.clone(res[i])
	}
	return out
}

// planCertified reports whether the plan's chosen executor runs the
// certified fast kernel, looked up in the plan's own estimate table (which
// forced plans carry too).
func planCertified(pl *plan.Plan) bool {
	for _, e := range pl.Estimates {
		if e.Algorithm == pl.Algorithm {
			return e.Certified
		}
	}
	return false
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
// cancellation cause (budget expiry vs. plain cancel); quota rejections pass
// through.
func admitErr(ctx context.Context, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if cause := context.Cause(ctx); cause != nil {
			return cause
		}
	}
	return err
}

// maxCachedPrefix bounds how much of a drained ranking a stream records
// for publication to the result cache. Without a cap a single exhaustive
// stream over large sets would make the server buffer (and then pin in the
// LRU) the entire O(|P|·|Q|) ranking the client consumed line by line. A
// truncated recording still publishes a valid prefix — it just cannot
// claim the ranking is exhausted.
const maxCachedPrefix = 4096

// Stream streams one join request through the session's shared pool and
// memo. It holds admission tokens and pooled engines until Stop — callers
// MUST Stop (idempotent; draining to exhaustion or a ctx error stops
// automatically). On Stop the drained prefix (up to maxCachedPrefix
// results) is published to the session's result cache, so a later request
// for any k up to that length is served without a join.
type Stream[T any] struct {
	svc       *Service
	ctx       context.Context
	cancel    context.CancelFunc // releases the budget timer; nil for replayed and routed streams
	sess      *session
	key       string // where Stop publishes; empty for replayed, routed and uncacheable streams
	kind      *resultKind[T]
	st        source[T]
	grant     *grant
	ctrs      *dht.Counters     // run-scoped; feeds calib on Stop
	calib     *plan.Calibration // the kernel bucket of the executed plan
	drained   []T               // private deep copies of what was served
	truncated bool              // results past maxCachedPrefix were not recorded
	budgetHit bool              // the deadline budget cut the ranking short
	exhausted bool
	stopped   bool

	// replaying serves replay, a cached complete ranking, in place of a live
	// join (no engines, no admission tokens, nothing to publish).
	replaying bool
	replay    []T
	pos       int
}

// Join2Stream and JoinNStream are the pair and tuple instantiations.
type (
	Join2Stream = Stream[join2.Result]
	JoinNStream = Stream[core.Answer]
)

// Truncated reports whether the stream's deadline budget expired: everything
// already returned is a correct ranking prefix, but the ranking was cut
// short. Meaningful once Next has returned an error or Stop has run.
func (s *Stream[T]) Truncated() bool { return s.budgetHit }

// Next returns the next-best result in the caller's id space; ok is false at
// exhaustion (or after Stop). A cancelled ctx stops the stream and returns
// its cause: ErrBudgetExceeded marks a truncated-but-correct prefix, while a
// plain cancel is an aborted request.
func (s *Stream[T]) Next() (T, bool, error) {
	var zero T
	if s.stopped {
		return zero, false, nil
	}
	var v T
	ok := false
	err := context.Cause(s.ctx)
	switch {
	case err != nil:
	case s.replaying:
		if ok = s.pos < len(s.replay); ok {
			// The replay slice is the cache's immutable snapshot.
			v = s.kind.clone(s.replay[s.pos])
			s.pos++
			return v, true, nil
		}
	default:
		v, ok, err = s.safeNext()
	}
	if err != nil || !ok {
		// A budget expiry is counted as a truncation once per stream.
		if errors.Is(err, ErrBudgetExceeded) && !s.budgetHit {
			s.budgetHit = true
			s.svc.budgetTruncs.Add(1)
		}
		s.exhausted = err == nil
		s.Stop()
		return zero, false, err
	}
	if s.sess != nil && s.sess.rl != nil {
		s.kind.toOld(s.sess.rl, &v)
	}
	if s.key == "" {
		return v, true, nil // nowhere to publish: nothing to record
	}
	// The caller owns what it is handed, so the drained prefix keeps its own
	// deep copy — a caller mutating a served tuple before Stop must not
	// poison what Stop publishes to the result cache.
	if len(s.drained) < maxCachedPrefix {
		s.drained = append(s.drained, s.kind.clone(v))
	} else {
		s.truncated = true
	}
	return v, true, nil
}

// safeNext pulls from the underlying stream, converting a panic into an
// error so a crashing joiner still flows into Stop (engines released,
// admission returned) instead of unwinding through the caller.
func (s *Stream[T]) safeNext() (v T, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.svc.notePanic()
			var zero T
			v, ok, err = zero, false, fmt.Errorf("service: panic in join stream: %v", p)
		}
	}()
	return s.st.Next()
}

// NextK pulls up to k further results (fewer at exhaustion; on error the
// results drained before it are returned alongside).
func (s *Stream[T]) NextK(k int) ([]T, error) {
	return join2.Drain(k, s.Next)
}

// Stop releases the stream's engines and admission tokens and publishes the
// drained prefix to the result cache. Idempotent.
func (s *Stream[T]) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.st != nil {
		s.st.Release()
	}
	s.svc.adm.release(s.grant)
	s.grant = nil
	if s.cancel != nil {
		s.cancel()
	}
	if s.ctrs != nil {
		// Observed-cost feedback: the run's walk counters recalibrate the
		// cost-unit estimate of the kernel bucket the stream executed under.
		s.calib.Observe(s.ctrs.Snapshot(), s.sess.g.NumEdges())
	}
	if s.key != "" && (len(s.drained) > 0 || s.exhausted) {
		// A truncated recording is still a valid prefix, but it is not the
		// complete ranking even if the stream ran to exhaustion.
		s.sess.results.put(s.key, prefix{results: s.drained, n: len(s.drained), exhausted: s.exhausted && !s.truncated})
	}
}

// enter counts one join request and applies the drain gate.
func (s *Service) enter(class plan.Class) error {
	if class == plan.NWay {
		s.joinNReqs.Add(1)
	} else {
		s.join2Reqs.Add(1)
	}
	return s.admitGate()
}

// openJoin opens a streaming join request: results arrive one at a time in
// rank order, bit-identical to the prefix of the corresponding batch call.
// ctx cancellation (e.g. a disconnected HTTP client) aborts the work and
// returns the engines to the session pool.
func openJoin[T any](s *Service, ctx context.Context, graphName string, spec joinSpec[T], query Query) (*Stream[T], error) {
	if err := s.enter(spec.class()); err != nil {
		return nil, err
	}
	if st, claimed, err := spec.route(ctx, s, graphName, query); claimed {
		return st, err
	}
	rq, err := resolveJoin(s, graphName, spec, query)
	if err != nil {
		return nil, err
	}
	if rq.key != "" {
		// A cached complete ranking replays without a join (a stream's
		// demand is unknown up front, so only an exhausted prefix can serve
		// it whole).
		if pre, ok := rq.sess.results.getFull(rq.key); ok {
			s.resultHits.Add(1)
			if ctx == nil {
				ctx = context.Background()
			}
			return &Stream[T]{svc: s, ctx: ctx, kind: rq.kind, replaying: true, replay: pre.results.([]T)}, nil
		}
		s.resultMisses.Add(1)
	}
	return rq.open(ctx, 0, false)
}

// BatchMeta describes how a batch response was degraded under pressure; the
// zero value means "served exactly as demanded".
type BatchMeta struct {
	// ClampedK, when non-zero, is the k the request was degraded to by load
	// shedding (the served ranking is the exact top-ClampedK).
	ClampedK int `json:"clamped_k,omitempty"`
	// Truncated reports that the deadline budget expired mid-join: the
	// served results are a correct ranking prefix, but shorter than asked.
	Truncated bool `json:"truncated,omitempty"`
}

// joinBatch runs (or serves from the prefix cache) a top-k join by draining
// the stream openJoin exposes, reporting shed clamps and budget truncations
// as metadata instead of an opaque failure.
func joinBatch[T any](s *Service, ctx context.Context, graphName string, spec joinSpec[T], k int, query Query) ([]T, BatchMeta, error) {
	var meta BatchMeta
	if err := s.enter(spec.class()); err != nil {
		return nil, meta, err
	}
	if k <= 0 {
		return nil, meta, fmt.Errorf("service: k must be positive, got %d", k)
	}
	if st, claimed, err := spec.route(ctx, s, graphName, query); claimed {
		// A routed join bypasses the local result cache and shed clamping:
		// the shards apply their own admission and budgets, and the corner
		// bound already stops their streams at the demanded k.
		if err != nil {
			return nil, meta, err
		}
		defer st.Stop()
		res, err := st.NextK(k)
		return res, meta, err
	}
	rq, err := resolveJoin(s, graphName, spec, query)
	if err != nil {
		return nil, meta, err
	}
	if pre, ok := rq.sess.results.get(rq.key, k); ok {
		s.resultHits.Add(1)
		return rq.served(pre, k), meta, nil
	}
	// Under shed, an over-demanding miss degrades: any cached prefix beats
	// running a join, and failing that the demand is clamped to ShedK. The
	// served results are still the exact top of the ranking — shedding only
	// shortens it.
	if shedK := s.cfg.ShedK; s.Shedding() && k > shedK {
		if pre, ok := rq.sess.results.getAny(rq.key); ok && pre.n > 0 {
			s.resultHits.Add(1)
			s.shedClamps.Add(1)
			meta.ClampedK = min(k, pre.n)
			return rq.served(pre, k), meta, nil
		}
		k = shedK
		meta.ClampedK = shedK
		s.shedClamps.Add(1)
	}
	if rq.key != "" {
		s.resultMisses.Add(1)
	}
	st, err := rq.open(ctx, k, true)
	if err != nil {
		if errors.Is(err, ErrBudgetExceeded) {
			// The budget expired before the join could start (e.g. spent
			// queued at admission): the correct prefix is the empty one.
			s.budgetTruncs.Add(1)
			meta.Truncated = true
			return nil, meta, nil
		}
		return nil, meta, err
	}
	defer st.Stop()
	res, err := st.NextK(k)
	if errors.Is(err, ErrBudgetExceeded) {
		// The drained prefix is correct as far as it goes; surface it with
		// the truncation marker instead of discarding paid-for work.
		meta.Truncated = true
		return res, meta, nil
	}
	if err != nil {
		return nil, meta, err
	}
	return res, meta, nil
}

// truncErr folds batch truncation metadata back into ErrBudgetExceeded for
// the callers that want it as an error.
func truncErr(meta BatchMeta, err error) error {
	if err == nil && meta.Truncated {
		return ErrBudgetExceeded
	}
	return err
}

// OpenJoin2 opens a streaming top-pairs request on the named graph; see
// openJoin.
func (s *Service) OpenJoin2(ctx context.Context, graphName string, p, q SetRef, query Query) (*Join2Stream, error) {
	return openJoin(s, ctx, graphName, pairSpec{p, q}, query)
}

// Join2 runs (or serves from the prefix cache) a top-k 2-way join from p to
// q, exactly as dhtjoin.TopKPairs would evaluate it. When the deadline
// budget expires mid-join, the prefix drained so far is returned alongside
// ErrBudgetExceeded.
func (s *Service) Join2(ctx context.Context, graphName string, p, q SetRef, k int, query Query) ([]join2.Result, error) {
	res, meta, err := s.Join2Meta(ctx, graphName, p, q, k, query)
	return res, truncErr(meta, err)
}

// Join2Meta is Join2 with load-degradation metadata; see joinBatch.
func (s *Service) Join2Meta(ctx context.Context, graphName string, p, q SetRef, k int, query Query) ([]join2.Result, BatchMeta, error) {
	return joinBatch(s, ctx, graphName, pairSpec{p, q}, k, query)
}

// OpenJoinN opens a streaming n-way join request over the query graph
// described by sets and edges (edges index into sets); see openJoin.
func (s *Service) OpenJoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, query Query) (*JoinNStream, error) {
	return openJoin(s, ctx, graphName, tupleSpec{sets, edges}, query)
}

// JoinN runs (or serves from the prefix cache) a top-k n-way join, exactly
// as dhtjoin.TopK would evaluate it; budget expiry as in Join2.
func (s *Service) JoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) ([]core.Answer, error) {
	res, meta, err := joinBatch(s, ctx, graphName, tupleSpec{sets, edges}, k, query)
	return res, truncErr(meta, err)
}

// explainJoin resolves a request and returns the plan its execution would
// run — the chosen algorithm, every candidate's cost estimate, and the
// stats snapshot — without executing anything (a dry run: no admission
// tokens, no engines). k sizes the demand a pair plan is priced for; k <= 0
// and every tuple plan are priced for the resolved per-edge budget, as the
// streaming entry points do.
func explainJoin[T any](s *Service, graphName string, spec joinSpec[T], k int, query Query) (*plan.Plan, error) {
	rq, err := resolveJoin(s, graphName, spec, query)
	if err != nil {
		return nil, err
	}
	return rq.plan(k)
}

// ExplainJoin2 is the dry run of a 2-way request; see explainJoin.
func (s *Service) ExplainJoin2(ctx context.Context, graphName string, p, q SetRef, k int, query Query) (*plan.Plan, error) {
	return explainJoin(s, graphName, pairSpec{p, q}, k, query)
}

// ExplainJoinN is the dry run of an n-way request; see explainJoin.
func (s *Service) ExplainJoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) (*plan.Plan, error) {
	return explainJoin(s, graphName, tupleSpec{sets, edges}, k, query)
}

// Score computes the truncated score h_d(u, v) exactly as dhtjoin.Score (on
// the graph as loaded; relabeling is a join-side optimization and is ignored
// here, matching the one-shot facade). ctx bounds the wait for admission.
func (s *Service) Score(ctx context.Context, graphName string, u, v graph.NodeID, query Query) (float64, error) {
	s.scoreReqs.Add(1)
	if err := s.admitGate(); err != nil {
		return 0, err
	}
	res, err := query.Resolve()
	if err != nil {
		return 0, err
	}
	s.recordMeasure(res.Kernel.Name)
	ge, err := s.graphFor(graphName)
	if err != nil {
		return 0, err
	}
	n := ge.g.NumNodes()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return 0, fmt.Errorf("service: node pair (%d,%d) out of range [0,%d)", u, v, n)
	}
	sess, err := s.sessionFor(ge, res.Params, res.D, graph.NoRelabel, res.Kernel.Name)
	if err != nil {
		return 0, err
	}
	g, err := s.adm.acquire(ctx, query.Tenant, query.Priority, 1)
	if err != nil {
		return 0, err
	}
	defer s.adm.release(g)
	if !res.Kernel.WalkBased {
		// Matrix measures (simrank) score through the kernel's evaluator; the
		// session pool holds walk engines these measures never touch.
		ev, err := res.Kernel.NewEvaluator(sess.g, res.Params, res.D)
		if err != nil {
			return 0, err
		}
		var dst [1]float64
		if err := ev.ScoresInto(u, []graph.NodeID{v}, res.D, dst[:]); err != nil {
			return 0, err
		}
		return dst[0], nil
	}
	e := sess.pool.Get()
	defer sess.pool.Put(e)
	return e.ForwardScoreKind(res.Kernel.Walk, u, v, res.D), nil
}

// Stats snapshots the service counters. All int64 fields are monotone over
// the service's lifetime; Graphs and Sessions are gauges.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	graphs := len(s.graphs)
	sessions := len(s.sessions)
	memoHits, memoMisses := s.retiredMemoHits.Load(), s.retiredMemoMisses.Load()
	for _, sess := range s.sessions {
		memoHits += sess.memo.Hits()
		memoMisses += sess.memo.Misses()
	}
	s.mu.Unlock()
	s.picksMu.Lock()
	picks := make(map[string]int64, len(s.picks))
	for name, n := range s.picks {
		picks[name] = n
	}
	s.picksMu.Unlock()
	s.measureMu.Lock()
	measures := make(map[string]int64, len(s.measureQueries))
	for name, n := range s.measureQueries {
		measures[name] = n
	}
	s.measureMu.Unlock()
	snap := s.counters.Snapshot()
	free, waiting, rejected := s.adm.snapshot()
	var cluster *RouterStats
	if s.cfg.Router != nil {
		rs := s.cfg.Router.RouterStats()
		cluster = &rs
	}
	var persistence *store.Counters
	var generations map[string]uint64
	if s.store != nil {
		c := s.store.Counters()
		persistence = &c
		names := s.store.Names()
		generations = make(map[string]uint64, len(names))
		for _, name := range names {
			generations[name] = s.store.Gen(name)
		}
	}
	return Stats{
		Graphs:   graphs,
		Sessions: sessions,

		QuotaRejections:   rejected,
		BudgetTruncations: s.budgetTruncs.Load(),
		ShedClamps:        s.shedClamps.Load(),
		PanicsRecovered:   s.panics.Load(),
		AdmissionFree:     free,
		AdmissionWaiting:  waiting,
		Draining:          s.draining.Load(),

		EdgeUpdates: s.edgeUpdates.Load(),
		Persistence: persistence,
		Generations: generations,
		Cluster:     cluster,

		Join2Requests:  s.join2Reqs.Load(),
		JoinNRequests:  s.joinNReqs.Load(),
		ScoreRequests:  s.scoreReqs.Load(),
		ResultHits:     s.resultHits.Load(),
		ResultMisses:   s.resultMisses.Load(),
		MemoHits:       memoHits,
		MemoMisses:     memoMisses,
		PlanRequests:   s.planReqs.Load(),
		PlanCacheHits:  s.planCacheHits.Load(),
		PlanPicks:      picks,
		MeasureQueries: measures,
		Walks:          snap.Walks,
		EdgeSweeps:     snap.EdgeSweeps,
		FrontierEdges:  snap.FrontierEdges,
		KernelPicks:    snap.KernelPicks,
		Reverified:     snap.Reverified,
		FallbackPairs:  snap.FallbackPairs,
	}
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

// resolveWorkers normalizes a requested worker count to [1, GOMAXPROCS·1].
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		return 1
	}
	return w
}
