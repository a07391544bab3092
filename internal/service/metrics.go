package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Prometheus text exposition of Stats, hand-rendered: the format is three
// trivial line shapes (# HELP, # TYPE, sample), which is not worth a client
// dependency. Counter names carry the _total suffix per convention; gauges
// do not. Metric values are exact — counters are integers, and the one
// boolean gauge renders as 0/1.

// metricsContentType is the exposition format version this renders.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metric emits one un-labelled sample with its header lines.
func metric(w io.Writer, name, kind, help string, value int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, kind, name, value)
}

// WriteMetrics renders a stats snapshot in the Prometheus text format. The
// same counters /stats serves as JSON, under stable njoind_* names.
func WriteMetrics(w io.Writer, st Stats) {
	metric(w, "njoind_graphs", "gauge", "Loaded graphs in the registry.", int64(st.Graphs))
	metric(w, "njoind_sessions", "gauge", "Live shared-resource sessions.", int64(st.Sessions))

	metric(w, "njoind_join2_requests_total", "counter", "2-way join requests.", st.Join2Requests)
	metric(w, "njoind_joinn_requests_total", "counter", "n-way join requests.", st.JoinNRequests)
	metric(w, "njoind_score_requests_total", "counter", "Single-pair score requests.", st.ScoreRequests)
	metric(w, "njoind_result_hits_total", "counter", "Result-cache hits.", st.ResultHits)
	metric(w, "njoind_result_misses_total", "counter", "Result-cache misses.", st.ResultMisses)
	metric(w, "njoind_memo_hits_total", "counter", "Score-column memo hits.", st.MemoHits)
	metric(w, "njoind_memo_misses_total", "counter", "Score-column memo misses.", st.MemoMisses)

	metric(w, "njoind_plan_requests_total", "counter", "Planner decisions requested.", st.PlanRequests)
	metric(w, "njoind_plan_cache_hits_total", "counter", "Planner cache hits.", st.PlanCacheHits)
	if len(st.PlanPicks) > 0 {
		const name = "njoind_plan_picks_total"
		fmt.Fprintf(w, "# HELP %s Executions per picked algorithm.\n# TYPE %s counter\n", name, name)
		algos := make([]string, 0, len(st.PlanPicks))
		for algo := range st.PlanPicks {
			algos = append(algos, algo)
		}
		sort.Strings(algos)
		for _, algo := range algos {
			fmt.Fprintf(w, "%s{algo=%s} %d\n", name, strconv.Quote(algo), st.PlanPicks[algo])
		}
	}

	if len(st.MeasureQueries) > 0 {
		const name = "njoind_measure_queries_total"
		fmt.Fprintf(w, "# HELP %s Queries per resolved proximity measure.\n# TYPE %s counter\n", name, name)
		names := make([]string, 0, len(st.MeasureQueries))
		for m := range st.MeasureQueries {
			names = append(names, m)
		}
		sort.Strings(names)
		for _, m := range names {
			fmt.Fprintf(w, "%s{measure=%s} %d\n", name, strconv.Quote(m), st.MeasureQueries[m])
		}
	}

	metric(w, "njoind_walks_total", "counter", "Random walks executed.", st.Walks)
	metric(w, "njoind_edge_sweeps_total", "counter", "Walk-kernel edge sweeps.", st.EdgeSweeps)
	metric(w, "njoind_frontier_edges_total", "counter", "Edges crossed by walk frontiers.", st.FrontierEdges)

	metric(w, "njoind_quota_rejections_total", "counter", "Requests rejected by tenant quotas.", st.QuotaRejections)
	metric(w, "njoind_budget_truncations_total", "counter", "Rankings truncated by deadline budgets.", st.BudgetTruncations)
	metric(w, "njoind_shed_clamps_total", "counter", "Batch demands clamped by load shedding.", st.ShedClamps)
	metric(w, "njoind_panics_recovered_total", "counter", "Panics recovered inside request handling.", st.PanicsRecovered)
	metric(w, "njoind_admission_free", "gauge", "Free admission tokens.", int64(st.AdmissionFree))
	metric(w, "njoind_admission_waiting", "gauge", "Requests waiting for admission.", int64(st.AdmissionWaiting))
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	metric(w, "njoind_draining", "gauge", "1 while the server drains for shutdown.", draining)

	metric(w, "njoind_edge_updates_total", "counter", "Edge-update batches applied.", st.EdgeUpdates)
	if p := st.Persistence; p != nil {
		metric(w, "njoind_wal_appends_total", "counter", "WAL records appended.", p.WALAppends)
		metric(w, "njoind_snapshots_total", "counter", "Snapshot segments written.", p.Snapshots)
	}

	if c := st.Cluster; c != nil {
		metric(w, "njoind_cluster_scatter_queries_total", "counter", "Join2 queries served via cluster scatter.", c.ScatterQueries)
		metric(w, "njoind_cluster_shard_streams_total", "counter", "Shard streams opened (failover reopens included).", c.ShardStreams)
		metric(w, "njoind_cluster_shard_early_stops_total", "counter", "Shard streams halted by the corner bound before drain.", c.ShardEarlyStops)
		metric(w, "njoind_cluster_failovers_total", "counter", "Dead replicas skipped mid-query.", c.Failovers)
		metric(w, "njoind_cluster_scatter_served_total", "counter", "Scatter requests executed for peers.", c.ScatterServed)
		metric(w, "njoind_cluster_placements_out_total", "counter", "Graph segments shipped to peers.", c.PlacementsOut)
		metric(w, "njoind_cluster_placements_in_total", "counter", "Graph segments accepted from peers.", c.PlacementsIn)
	}
}
