package service

import "repro/internal/store"

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

// Outstanding is the service's leak gauge, as EnginePool.Outstanding is a
// pool's: the engines checked out of its live sessions' pools and the
// admission tokens held, right now. Both are zero when nothing is in flight
// — what a stream stopped mid-way must restore.
func (s *Service) Outstanding() (engines int64, tokens int) {
	s.mu.Lock()
	for _, sess := range s.sessions {
		engines += sess.pool.Outstanding()
	}
	s.mu.Unlock()
	free, _, _ := s.adm.snapshot()
	return engines, s.adm.total - free
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
	}
}
