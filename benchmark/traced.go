package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// prefixCounts are the /stats deltas of one replay of the fixed prefix by
// one client. They are counts of work, not times, so two replays on the same
// commit must agree exactly: the machine-independent gate.
type prefixCounts struct {
	Walks, EdgeSweeps, FrontierEdges int64
	ResultHits, ResultMisses         int64
	MemoHits, MemoMisses             int64
	PlanRequests, PlanCacheHits      int64
}

func countsBetween(a, b service.Stats) prefixCounts {
	return prefixCounts{
		Walks: b.Walks - a.Walks, EdgeSweeps: b.EdgeSweeps - a.EdgeSweeps, FrontierEdges: b.FrontierEdges - a.FrontierEdges,
		ResultHits: b.ResultHits - a.ResultHits, ResultMisses: b.ResultMisses - a.ResultMisses,
		MemoHits: b.MemoHits - a.MemoHits, MemoMisses: b.MemoMisses - a.MemoMisses,
		PlanRequests: b.PlanRequests - a.PlanRequests, PlanCacheHits: b.PlanCacheHits - a.PlanCacheHits,
	}
}

// replayPrefix sets up a fresh njoind and replays prefix on one connection,
// with or without tracing.
func (p *prepared) replayPrefix(e *env, prefix []*request, tr *tracer, tag string) ([]sample, prefixCounts, error) {
	dataDir, err := e.dataDirFor(p.w, tag)
	if err != nil {
		return nil, prefixCounts{}, err
	}
	if dataDir != "" {
		defer os.RemoveAll(dataDir)
	}
	// One connection for the warm-up too: two racing clients would leave
	// the memo and the plan calibration in an order-dependent state, and the
	// counts below must repeat exactly.
	tgt, _, _, err := p.setUp(e, dataDir, 1)
	if err != nil {
		return nil, prefixCounts{}, err
	}
	defer tgt.stop()
	c, err := dial(tgt.addr)
	if err != nil {
		return nil, prefixCounts{}, err
	}
	defer c.close()
	before, err := readStats(c)
	if err != nil {
		return nil, prefixCounts{}, err
	}
	samples, err := (&load{addr: tgt.addr, list: prefix, tr: tr, span: "njoind.tcp"}).replay(1)
	if err != nil {
		return nil, prefixCounts{}, err
	}
	for i := range samples {
		if !samples[i].ok {
			return nil, prefixCounts{}, fmt.Errorf("prefix request %d failed: %s", samples[i].idx, samples[i].err)
		}
	}
	after, err := readStats(c)
	return samples, countsBetween(before, after), err
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runTraced is the per-layer run: one timed window with tracing on (counts
// from /stats around it, tail latency, the generator's own lag and CPU), two
// replays of the fixed prefix against fresh servers (traced and untraced:
// their /stats counts must agree exactly, and their times give the tracing
// overhead), and the in-process ladder.
func (p *prepared) runTraced(e *env, seconds int) (map[string]value, *measurement, error) {
	tr := newTracer()
	mm, err := p.measure(e, seconds, tr)
	if err != nil {
		return nil, nil, err
	}
	m := make(map[string]value)
	picks := windowLayers(m, mm, p.w.durable)

	prefix := p.timed[:min(p.w.prefix, len(p.timed))]
	traced, countsA, err := p.replayPrefix(e, prefix, tr, "passA")
	if err != nil {
		return nil, nil, err
	}
	untraced, countsB, err := p.replayPrefix(e, prefix, nil, "passB")
	if err != nil {
		return nil, nil, err
	}
	if countsA != countsB {
		mm.failed = mm.attempted()
		mm.note("prefix counts differ between two passes: %+v vs %+v", countsA, countsB)
	}
	ops := float64(len(prefix))
	m["dht.walks_per_op"] = value{Value: float64(countsA.Walks) / ops, N: len(prefix)}
	m["dht.edge_sweeps_per_op"] = value{Value: float64(countsA.EdgeSweeps) / ops, N: len(prefix)}
	m["dht.frontier_edges_per_op"] = value{Value: float64(countsA.FrontierEdges) / ops, N: len(prefix)}
	m["service.prefix_result_hit_ratio"] = value{Value: ratio(countsA.ResultHits, countsA.ResultMisses), N: len(prefix)}
	m["service.prefix_memo_hit_ratio"] = value{Value: ratio(countsA.MemoHits, countsA.MemoMisses), N: len(prefix)}
	var ta, tb []float64
	for i := range traced {
		ta = append(ta, ms(traced[i].latency()))
		tb = append(tb, ms(untraced[i].latency()))
	}
	if base := median(tb); base > 0 {
		m["loadgen.trace_overhead_pct"] = value{Value: (median(ta) - base) / base * 100, N: len(ta)}
	}

	l := newLadder(p, tr)
	if err := l.run(e, prefix, traced); err != nil {
		return nil, nil, err
	}
	var edits []*request
	for _, r := range append(append([]*request(nil), p.timed...), p.probes...) {
		if r.op == opEdges && len(edits) < editPrefix {
			edits = append(edits, r)
		}
	}
	if err := l.updateRungs(e, edits); err != nil {
		return nil, nil, err
	}
	m["cluster.shard_streams_per_op"], m["cluster.early_stops_per_op"] = value{}, value{}
	if p.w.name == "join2_cold" {
		streams, stops, err := l.clusterRung(prefix)
		if err != nil {
			return nil, nil, err
		}
		m["cluster.shard_streams_per_op"], m["cluster.early_stops_per_op"] = value{Value: streams}, value{Value: stops}
	}
	if err := graphRungs(m, p.text, p.d.Graph); err != nil {
		return nil, nil, err
	}
	rows := l.metrics(m)
	mm.ladderTitle = fmt.Sprintf("ladder: %s, %d-request prefix (rungs below the service: first %d)", p.w.name, len(prefix), min(coldPrefix, len(prefix)))
	mm.ladder = rows
	tr.link()
	tf := traceFile{Workload: p.w.name, Seed: p.seed, PlanPicks: picks, Ladder: rows, Spans: tr.spans}
	if err := tf.write(filepath.Join(e.scratch, "trace-"+p.w.name+".json")); err != nil {
		return nil, nil, err
	}
	mm.notes = append(mm.notes, l.notes...)
	return m, mm, nil
}

// graphRungs times the text parser and the structural-stats pass, three
// times each.
func graphRungs(m map[string]value, text []byte, g *graph.Graph) error {
	var parse, stats []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, _, err := graph.ReadText(bytes.NewReader(text)); err != nil {
			return err
		}
		parse = append(parse, ms(time.Since(t0)))
		t0 = time.Now()
		graph.ComputeStats(g)
		stats = append(stats, ms(time.Since(t0)))
	}
	m["graph.parse_ms"] = value{Value: median(parse), N: 3}
	m["graph.stats_ms"] = value{Value: median(stats), N: 3}
	return nil
}

// windowLayers adds the per-layer metrics read around the rounds' windows
// and returns the plan_picks census.
func windowLayers(m map[string]value, mm *measurement, durable bool) map[string]int64 {
	var reads, lags []float64
	byOp := make(map[opKind][]float64)
	picks := make(map[string]int64)
	var d prefixCounts // summed over the rounds
	var truncs, quotas, sheds, appends, snaps, walBytes int64
	var njoindCPU, selfCPU, recovered time.Duration
	peak, n := 0.0, 0
	for _, rd := range mm.rounds {
		for i := range rd.samples[:rd.probeAt] {
			s := &rd.samples[i]
			if !s.ok {
				continue
			}
			n++
			if s.op != opEdges {
				reads = append(reads, ms(s.latency()))
			}
			byOp[s.op] = append(byOp[s.op], ms(s.latency()))
			if !s.due.IsZero() {
				lags = append(lags, ms(s.lag))
			}
		}
		a, b := rd.before, rd.after
		c := countsBetween(a, b)
		d.ResultHits, d.ResultMisses = d.ResultHits+c.ResultHits, d.ResultMisses+c.ResultMisses
		d.MemoHits, d.MemoMisses = d.MemoHits+c.MemoHits, d.MemoMisses+c.MemoMisses
		d.PlanRequests, d.PlanCacheHits = d.PlanRequests+c.PlanRequests, d.PlanCacheHits+c.PlanCacheHits
		truncs += b.BudgetTruncations - a.BudgetTruncations
		quotas += b.QuotaRejections - a.QuotaRejections
		sheds += b.ShedClamps - a.ShedClamps
		for name, k := range b.PlanPicks {
			if k > a.PlanPicks[name] {
				picks[name] += k - a.PlanPicks[name]
			}
		}
		if len(rd.marks) > 1 {
			njoindCPU += rd.marks[len(rd.marks)-1].cpu - rd.marks[0].cpu
		}
		selfCPU += rd.selfCPU
		peak = max(peak, rd.peakMB)
		if durable && a.Persistence != nil && b.Persistence != nil {
			appends += b.Persistence.WALAppends - a.Persistence.WALAppends
			snaps += b.Persistence.Snapshots - a.Persistence.Snapshots
			walBytes += rd.walBytes
		}
		recovered = max(recovered, rd.recover)
	}
	m["njoind.p95_ms"] = value{Value: percentile(reads, 0.95), N: len(reads)}
	m["njoind.p99_ms"] = value{Value: percentile(reads, 0.99), N: len(reads)}
	m["njoind.max_ms"] = value{Value: percentile(reads, 1), N: len(reads)}
	m["njoind.rss_peak_mb"] = value{Value: peak, N: len(mm.rounds)}
	m["measure.dht_p50_ms"] = value{Value: median(byOp[opJoin2]), N: len(byOp[opJoin2])}
	m["measure.ppr_p50_ms"] = value{Value: median(byOp[opJoin2PPR]), N: len(byOp[opJoin2PPR])}
	m["measure.score_p50_ms"] = value{Value: median(byOp[opScore]), N: len(byOp[opScore])}
	m["service.result_hit_ratio"] = value{Value: ratio(d.ResultHits, d.ResultMisses), N: n}
	m["service.memo_hit_ratio"] = value{Value: ratio(d.MemoHits, d.MemoMisses), N: n}
	m["plan.cache_hit_ratio"] = value{Value: ratio(d.PlanCacheHits, d.PlanRequests-d.PlanCacheHits), N: int(d.PlanRequests)}
	m["service.budget_truncations"] = value{Value: float64(truncs), N: n}
	m["service.quota_rejections"] = value{Value: float64(quotas), N: n}
	m["service.shed_clamps"] = value{Value: float64(sheds), N: n}
	m["loadgen.sched_lag_p95_ms"] = value{Value: percentile(lags, 0.95), N: len(lags)}
	m["loadgen.cpu_share"] = value{}
	if total := njoindCPU + selfCPU; total > 0 {
		m["loadgen.cpu_share"] = value{Value: float64(selfCPU) / float64(total), N: len(mm.rounds)}
	}
	// Bytes on disk at window end over the edits that produced them: what
	// the WAL and the folded snapshots cost per edit batch.
	m["store.wal_appends"] = value{Value: float64(appends), N: int(appends)}
	m["store.snapshots"] = value{Value: float64(snaps), N: int(appends)}
	m["store.wal_bytes_per_edit"] = value{Value: float64(walBytes) / float64(max(appends, 1)), N: int(appends)}
	m["store.recover_ms"] = value{Value: ms(recovered), N: 1}
	return picks
}

// link fills in the rung spans' parents: the same request's span of the rung
// above (rungParent). Rungs run bottom-up, one rung over all requests at a
// time, so a parent does not exist yet when its child is recorded.
func (t *tracer) link() {
	type key struct {
		req  int
		name string
	}
	ids := make(map[key]int)
	for _, s := range t.spans {
		ids[key{s.Request, s.Name}] = s.ID
	}
	for i := range t.spans {
		s := &t.spans[i]
		if up, ok := rungParent[s.Name]; ok {
			s.Parent = ids[key{s.Request, up}] // 0, a root, when that rung skipped the request
		}
	}
}
