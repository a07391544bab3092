package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/plan"
	"repro/internal/rankjoin"
	"repro/internal/service"
	"repro/internal/store"
)

// The ladder replays a fixed prefix of the timed list, one request at a
// time, through successive rungs — each rung a call into one layer's public
// functions, made from here — so that a rung minus the rung below it is that
// layer's self time. The rungs below the service (walk kernel, joiner,
// planner, one-shot facade, cold service) cost a full join each, so they run
// on the first coldPrefix requests only; the cheap rungs (cache hit, HTTP
// handler, real TCP) run on the workload's whole prefix.
const (
	coldPrefix    = 32
	clusterPrefix = 16 // a 3-node scatter costs about three joins
	editPrefix    = 16 // edge updates timed by the update rungs
	walkWidth     = 8  // BatchEngine column width, dht.DefaultBatchWidth
	defaultM      = 50 // the n-way per-edge budget every request resolves to
)

// rungParent names, for each rung, the rung that calls into it in the served
// path: a rung's span gets the same request's span of that rung as parent.
var rungParent = map[string]string{
	"dht.walk":     "join.topk",
	"join.topk":    "dhtjoin.topk",
	"plan.decide":  "dhtjoin.topk",
	"dhtjoin.topk": "service.join",
	"service.join": "http.handler",
	"service.hit":  "http.handler",
	"http.handler": "njoind.tcp",
}

// ladder accumulates per-request rung times (ms), keyed by rung name.
type ladder struct {
	p         *prepared
	tr        *tracer
	times     map[string]map[int]float64 // rung -> request index -> ms
	walkShare float64                    // share of the executor rung's CPU samples inside internal/dht
	first     map[int]float64            // n-way requests: ms to the first answer
	hit       map[int]bool               // request was a result-cache hit at the http rung
	bytes     []float64                  // http response sizes
	notes     []string
}

func newLadder(p *prepared, tr *tracer) *ladder {
	return &ladder{p: p, tr: tr, times: make(map[string]map[int]float64),
		first: make(map[int]float64), hit: make(map[int]bool)}
}

// timeRung runs f as request req's rung and records its span.
func (l *ladder) timeRung(rung string, req int, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	if l.times[rung] == nil {
		l.times[rung] = make(map[int]float64)
	}
	l.times[rung][req] = ms(t1.Sub(t0))
	// Span IDs are assigned by the tracer; the parent link is by rung name
	// and request, which readers resolve (see README), because the rung
	// above runs later than the rung below.
	l.tr.add(0, req, rung, t0, t1)
	return err
}

// resolved is what a request's measure resolves to with default options,
// as dhtjoin.Options and service.Query both resolve it.
type resolved struct {
	kind        dht.Kind
	params      dht.Params
	d           int
	planMeasure string
}

func resolveMeasure(name string) (resolved, error) {
	kern, err := measure.Lookup(name)
	if err != nil {
		return resolved{}, err
	}
	p := kern.ResolveParams(dht.Params{})
	if p == (dht.Params{}) {
		p = dht.DHTLambda(0.2)
	}
	r := resolved{params: p, d: p.StepsForEpsilon(1e-6), planMeasure: kern.PlanMeasure}
	if name != "" && kern.WalkBased {
		r.kind = kern.Walk
	}
	return r, nil
}

// coldReq is one join request of the prefix, resolved for the rungs below
// the service.
type coldReq struct {
	i    int // index in the prefix
	r    *request
	g    *graph.Graph // the graph as the prefix's earlier edits leave it
	rm   resolved
	sets []*graph.NodeSet
	pl   *plan.Plan
}

// coldRungs runs the rungs below the service, one rung at a time over all
// requests: the walk kernel, the planner, the planner-picked executor called
// directly (fresh config, no pool, no memo), and the one-shot facade. The
// executor rung runs under a CPU profile, which is how the kernel's share of
// the joiner's time is measured from outside the joiner.
func (l *ladder) coldRungs(e *env, o *oracle, reqs []*coldReq) error {
	for _, c := range reqs {
		// dht.walk: the batched backward kernel over the join's first
		// target set, at full depth.
		targets := c.sets[1].Nodes()
		be, err := dht.NewBatchEngine(c.g, c.rm.params, c.rm.d, walkWidth)
		if err != nil {
			return err
		}
		if err := l.timeRung("dht.walk", c.i, func() error {
			for i := 0; i < len(targets); i += walkWidth {
				be.BackWalkScoresBatch(c.rm.kind, targets[i:min(i+walkWidth, len(targets))], c.rm.d)
			}
			return nil
		}); err != nil {
			return err
		}
		l.times["dht.walk"][c.i] /= float64(len(targets)) // per walk
	}
	for _, c := range reqs {
		class, w := plan.TwoWay, plan.Workload{Stats: c.g.Stats(), K: c.r.k, M: defaultM, D: c.rm.d, Measure: c.rm.planMeasure}
		if c.r.op == opJoinN {
			class, w.K = plan.NWay, defaultM
			for _, s := range c.sets {
				w.SetSizes = append(w.SetSizes, s.Len())
			}
			w.QueryEdges = shapeEdges(c.r.shape, len(c.sets))
		} else {
			w.P, w.Q = c.sets[0].Len(), c.sets[1].Len()
		}
		if err := l.timeRung("plan.decide", c.i, func() (err error) {
			c.pl, err = plan.Decide(class, w, "")
			return err
		}); err != nil {
			return err
		}
	}
	share, err := kernelShare(e.scratch, func() error {
		for _, c := range reqs {
			if err := l.timeRung("join.topk", c.i, func() error { return l.executor(c) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.walkShare = share
	for _, c := range reqs {
		if err := l.timeRung("dhtjoin.topk", c.i, func() error {
			_, err := o.expect(c.g, c.r, "", "")
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// executor runs the planner's pick for c directly, draining k results.
func (l *ladder) executor(c *coldReq) error {
	if c.r.op == opJoinN {
		t0 := time.Now()
		spec := core.Spec{Graph: c.g, Query: queryGraph(c.r, c.sets), Params: c.rm.params, D: c.rm.d, Agg: rankjoin.Min, K: 1, Measure: c.rm.kind}
		alg, err := core.NewNamed(c.pl.Algorithm, spec, defaultM)
		if err != nil {
			return err
		}
		st, err := alg.Stream()
		if err != nil {
			return err
		}
		defer st.Release()
		for n := 0; n < c.r.k; n++ {
			if _, ok, err := st.Next(); err != nil || !ok {
				return err
			}
			if n == 0 {
				l.first[c.i] = ms(time.Since(t0))
			}
		}
		return nil
	}
	cfg := join2.Config{Graph: c.g, Params: c.rm.params, D: c.rm.d, P: c.sets[0].Nodes(), Q: c.sets[1].Nodes(), Measure: c.rm.kind}
	st, err := join2.NewNamedStream(c.pl.Algorithm, cfg, join2.StreamSpec{Initial: c.r.k}, true)
	if err != nil {
		return err
	}
	defer st.Release()
	for n := 0; n < c.r.k; n++ {
		if _, ok, err := st.Next(); err != nil || !ok {
			return err
		}
	}
	return nil
}

// kernelShare runs f under a CPU profile and returns the share of its CPU
// samples whose leaf function is in the walk-kernel package, as `go tool
// pprof -top` attributes them. f's calls are into the joiners; what they
// spend inside internal/dht is the kernel's share of the joiner.
func kernelShare(scratch string, f func() error) (float64, error) {
	path := filepath.Join(scratch, fmt.Sprintf("joiner-%d.prof", os.Getpid()))
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return 0, err
	}
	err = f()
	pprof.StopCPUProfile()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", path).Output()
	if err != nil {
		return 0, fmt.Errorf("go tool pprof: %w", err)
	}
	// Rows are "flat flat% sum% cum cum% name"; flat% of a leaf is its share
	// of all samples.
	var kernel float64
	for _, line := range strings.Split(string(top), "\n") {
		f := strings.Fields(line)
		if len(f) >= 6 && strings.HasPrefix(f[5], "repro/internal/dht.") {
			if pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64); err == nil {
				kernel += pct / 100
			}
		}
	}
	return kernel, nil
}

// serve evaluates r on svc the way the HTTP handlers do.
func serve(svc *service.Service, r *request) error {
	ctx := context.Background()
	q := service.Query{MeasureName: r.measure}
	ref := func(s setRef) service.SetRef { return service.SetRef{Name: s.Set, IDs: s.IDs} }
	switch r.op {
	case opJoin2, opJoin2PPR:
		_, err := svc.Join2(ctx, r.graph, ref(r.sets[0]), ref(r.sets[1]), r.k, q)
		return err
	case opJoinN:
		refs := make([]service.SetRef, len(r.sets))
		for i, s := range r.sets {
			refs[i] = ref(s)
		}
		st, err := svc.OpenJoinN(ctx, r.graph, refs, shapeEdges(r.shape, len(refs)), q)
		if err != nil {
			return err
		}
		defer st.Stop()
		_, err = st.NextK(r.k)
		return err
	case opScore:
		_, err := svc.Score(ctx, r.graph, r.u, r.v, q)
		return err
	default:
		_, err := svc.UpdateEdges(r.graph, r.adds, r.dels)
		return err
	}
}

// newService loads the workload's graph into a fresh in-process service.
func (l *ladder) newService(cfg service.Config) (*service.Service, error) {
	svc := service.New(cfg)
	return svc, svc.LoadGraph(l.p.w.graph, l.p.d.Graph, l.p.d.Sets)
}

// handle drives one request through the HTTP handler with httptest.
func handle(h http.Handler, r *request) (*httptest.ResponseRecorder, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req := httptest.NewRequest(r.method, r.path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		return rec, fmt.Errorf("%s %s through the handler: status %d: %s", r.method, r.path, rec.Code, rec.Body.Bytes())
	}
	return rec, nil
}

// run climbs every in-process rung over the prefix. tcp holds the real
// process's per-request times from the traced replay (the top rung).
func (l *ladder) run(e *env, prefix []*request, tcp []sample) error {
	p := l.p
	o := newOracle(p.d, make(map[memoKey]any))
	for _, r := range prefix {
		if r.op == opEdges {
			o.edits = append(o.edits, r)
		}
	}
	// Rungs below the service, on the graph as the prefix's edits leave it.
	var reqs []*coldReq
	edits := 0
	for i, r := range prefix[:min(coldPrefix, len(prefix))] {
		switch r.op {
		case opEdges:
			edits++
		case opScore:
		default:
			c := &coldReq{i: i, r: r}
			var err error
			if c.g, err = o.graphAt(edits); err != nil {
				return err
			}
			if c.rm, err = resolveMeasure(r.measure); err != nil {
				return err
			}
			if c.sets, err = o.sets(r); err != nil {
				return err
			}
			reqs = append(reqs, c)
		}
	}
	if err := l.coldRungs(e, o, reqs); err != nil {
		return err
	}
	// service.join: the result cache off, so every call runs the joiner
	// behind admission, the session pool and the memo.
	cold, err := l.newService(service.Config{ResultCacheSize: -1})
	if err != nil {
		return err
	}
	for i, r := range prefix[:min(coldPrefix, len(prefix))] {
		rung := "service.join"
		if r.op == opEdges {
			rung = "service.update"
		}
		if err := l.timeRung(rung, i, func() error { return serve(cold, r) }); err != nil {
			return err
		}
	}
	// service.hit: the same call twice with the cache on; the second is timed.
	warm, err := l.newService(service.Config{})
	if err != nil {
		return err
	}
	for i, r := range prefix {
		if r.op == opEdges || r.op == opScore {
			continue
		}
		if err := serve(warm, r); err != nil {
			return err
		}
		if err := l.timeRung("service.hit", i, func() error { return serve(warm, r) }); err != nil {
			return err
		}
	}
	// http.handler: a service configured and warmed as njoind is, driven
	// through the handler, so a request hits or misses exactly as it does at
	// the top rung.
	hcfg := service.Config{}
	if p.w.durable {
		dir, err := e.dataDirFor(p.w, "http")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		st, _, err := store.Open(store.Config{Dir: dir, SnapshotEvery: 16})
		if err != nil {
			return err
		}
		defer st.Close()
		hcfg.Store = st
	}
	hsvc, err := l.newService(hcfg)
	if err != nil {
		return err
	}
	h := service.NewHandler(hsvc)
	for _, r := range p.warm {
		if _, err := handle(h, r); err != nil {
			return err
		}
	}
	for i, r := range prefix {
		before := hsvc.Stats().ResultHits
		if err := l.timeRung("http.handler", i, func() error {
			rec, err := handle(h, r)
			l.bytes = append(l.bytes, float64(rec.Body.Len()))
			return err
		}); err != nil {
			return err
		}
		l.hit[i] = hsvc.Stats().ResultHits > before
	}
	for i := range tcp {
		s := &tcp[i]
		if l.times["njoind.tcp"] == nil {
			l.times["njoind.tcp"] = make(map[int]float64)
		}
		l.times["njoind.tcp"][s.idx] = ms(s.end.Sub(s.start))
	}
	return nil
}

// updateRungs times editPrefix edge updates on a bare service and on one
// with a store attached; their difference is the store's self time.
func (l *ladder) updateRungs(e *env, edits []*request) error {
	bare, err := l.newService(service.Config{ResultCacheSize: -1})
	if err != nil {
		return err
	}
	for i, r := range edits {
		if err := l.timeRung("service.update", 1000+i, func() error { return serve(bare, r) }); err != nil {
			return err
		}
	}
	if !l.p.w.durable {
		return nil
	}
	dir := filepath.Join(e.scratch, fmt.Sprintf("data-%s-%d-store", l.p.w.name, os.Getpid()))
	defer os.RemoveAll(dir)
	st, _, err := store.Open(store.Config{Dir: dir, SnapshotEvery: 16})
	if err != nil {
		return err
	}
	defer st.Close()
	stored, err := l.newService(service.Config{ResultCacheSize: -1, Store: st})
	if err != nil {
		return err
	}
	for i, r := range edits {
		if err := l.timeRung("store.update", 1000+i, func() error { return serve(stored, r) }); err != nil {
			return err
		}
	}
	return nil
}

// clusterRung scatters the first clusterPrefix 2-way joins over an
// in-process 3-node cluster set up as cmd/bench's ClusterScatterTop50 does:
// three services, three loopback RPC listeners, the graph in three parts
// with two replicas each.
func (l *ladder) clusterRung(prefix []*request) (streams, stops float64, err error) {
	ctx := context.Background()
	nodes := make([]*cluster.Node, 3)
	svcs := make([]*service.Service, 3)
	addrs := make([]string, 3)
	for i := range nodes {
		svc := service.New(service.Config{MaxConcurrency: 16})
		nd, err := cluster.Start(cluster.Config{Name: fmt.Sprintf("node-%d", i), Bind: "127.0.0.1:0", Service: svc})
		if err != nil {
			return 0, 0, err
		}
		defer nd.Close()
		svc.SetRouter(nd)
		nodes[i], svcs[i], addrs[i] = nd, svc, nd.Self().Addr
	}
	for _, nd := range nodes {
		if err := nd.Join(ctx, addrs); err != nil {
			return 0, 0, err
		}
	}
	// Placement is deterministic in (node names, graph name); "zipf" is a
	// name whose parts land on peers of node-0, so the queries really scatter.
	const name = "zipf"
	if err := svcs[0].LoadGraph(name, l.p.d.Graph, l.p.d.Sets); err != nil {
		return 0, 0, err
	}
	if err := nodes[0].PlaceGraph(ctx, name, 3, 2); err != nil {
		return 0, 0, err
	}
	before := nodes[0].RouterStats()
	n := 0
	for i, r := range prefix[:min(clusterPrefix, len(prefix))] {
		if r.op != opJoin2 {
			continue
		}
		scattered := *r
		scattered.graph = name
		if err := l.timeRung("cluster.scatter", i, func() error { return serve(svcs[0], &scattered) }); err != nil {
			return 0, 0, err
		}
		n++
	}
	after := nodes[0].RouterStats()
	if after.ScatterQueries-before.ScatterQueries != int64(n) {
		l.notes = append(l.notes, fmt.Sprintf("cluster rung: %d of %d joins scattered", after.ScatterQueries-before.ScatterQueries, n))
	}
	return float64(after.ShardStreams-before.ShardStreams) / float64(max(n, 1)),
		float64(after.ShardEarlyStops-before.ShardEarlyStops) / float64(max(n, 1)), nil
}

// over is the median, over the requests timed at rung, of f(request, time);
// f may decline a request.
func (l *ladder) over(rung string, f func(req int, x float64) (float64, bool)) (float64, int) {
	var xs []float64
	for req, x := range l.times[rung] {
		if y, ok := f(req, x); ok {
			xs = append(xs, y)
		}
	}
	return median(xs), len(xs)
}

// med is the median of rung's times (ms) over the requests pick accepts
// (nil: all).
func (l *ladder) med(rung string, pick func(req int) bool) (float64, int) {
	return l.over(rung, func(req int, x float64) (float64, bool) { return x, pick == nil || pick(req) })
}

// diff is the median of per-request differences upper minus lower, over the
// requests timed at both.
func (l *ladder) diff(upper string, lower func(req int) (float64, bool)) (float64, int) {
	return l.over(upper, func(req int, x float64) (float64, bool) {
		y, ok := lower(req)
		return x - y, ok
	})
}

func (l *ladder) at(rung string) func(int) (float64, bool) {
	return func(req int) (float64, bool) {
		x, ok := l.times[rung][req]
		return x, ok
	}
}

// ladderRow is one line of the ladder table.
type ladderRow struct {
	Rung   string   `json:"rung"`
	Median float64  `json:"median_ms"`
	Self   float64  `json:"self_ms"`
	Share  *float64 `json:"share_of_tcp"` // nil: the rung is not on the path the prefix's requests take
	N      int      `json:"n"`
}

// metrics turns the rung times into the per-layer metrics and the ladder
// table. Self times are medians of per-request differences, so they need not
// add up to the difference of the medians.
func (l *ladder) metrics(m map[string]value) []ladderRow {
	put := func(name string, x float64, n int) { m[name] = value{Value: x, N: n} }
	walk, nw := l.med("dht.walk", nil)
	put("dht.walk_us", walk*1000, nw)
	isN := func(req int) bool { _, ok := l.first[req]; return ok }
	is2 := func(req int) bool { return !isN(req) }
	j2, n2 := l.med("join.topk", is2)
	jn, nn := l.med("join.topk", isN)
	put("join2.topk_ms", j2, n2)
	put("core.topk_ms", jn, nn)
	var firsts []float64
	for _, x := range l.first {
		firsts = append(firsts, x)
	}
	put("core.first_ms", median(firsts), len(firsts))
	put("join2.walk_share", l.walkShare, len(l.times["join.topk"]))
	dec, nd := l.med("plan.decide", nil)
	put("plan.decide_us", dec*1000, nd)
	dj, ndj := l.med("dhtjoin.topk", nil)
	put("dhtjoin.topk_ms", dj, ndj)
	sj, nsj := l.med("service.join", nil)
	put("service.join_ms", sj, nsj)
	sh, nsh := l.med("service.hit", nil)
	put("service.hit_us", sh*1000, nsh)
	su, nsu := l.med("service.update", nil)
	put("service.update_ms", su, nsu)
	stu, nstu := l.med("store.update", nil)
	put("store.update_ms", stu, nstu)
	hh, nh := l.med("http.handler", nil)
	put("http.handler_ms", hh, nh)
	put("http.resp_bytes_per_op", mean(l.bytes), len(l.bytes))
	tcp, nt := l.med("njoind.tcp", nil)
	put("njoind.tcp_ms", tcp, nt)
	cs, nc := l.med("cluster.scatter", nil)
	put("cluster.scatter_ms", cs, nc)

	djSelf, n := l.diff("dhtjoin.topk", l.at("join.topk"))
	put("dhtjoin.self_ms", djSelf, n)
	svcSelf, n := l.diff("service.join", l.at("dhtjoin.topk"))
	put("service.self_ms", svcSelf, n)
	stSelf, n := l.diff("store.update", l.at("service.update"))
	put("store.self_ms", stSelf, n)
	// Under the handler a request ran either the cache-hit path or the full
	// service path; subtract the one it took.
	served := func(req int) (float64, bool) {
		if l.hit[req] {
			return l.at("service.hit")(req)
		}
		if x, ok := l.at("service.join")(req); ok {
			return x, true
		}
		return l.at("service.update")(req)
	}
	httpSelf, n := l.diff("http.handler", served)
	put("http.self_us", httpSelf*1000, n)
	tcpSelf, n := l.diff("njoind.tcp", l.at("http.handler"))
	put("njoind.self_us", tcpSelf*1000, n)
	clSelf, n := l.diff("cluster.scatter", l.at("service.join"))
	put("cluster.self_ms", clSelf, n)

	// A request takes either the cache-hit path or the path through the
	// joiner; the share column covers the one this workload's prefix took.
	hits := 0
	for _, h := range l.hit {
		if h {
			hits++
		}
	}
	hot := 2*hits > len(l.hit)
	share := func(x float64, onPath bool) *float64 {
		if tcp == 0 || !onPath {
			return nil
		}
		x /= tcp
		return &x
	}
	// The kernel's part of the executor rung, at the profiled share.
	jt, njt := l.med("join.topk", nil)
	walkTotal := jt * l.walkShare
	joinSelf := jt - walkTotal
	return []ladderRow{
		{"dht.walk (in the joiner)", walkTotal, walkTotal, share(walkTotal, !hot), nw},
		{"join.topk (join2|core)", jt, joinSelf, share(joinSelf, !hot), njt},
		{"plan.decide", dec, dec, share(dec, !hot), nd},
		{"dhtjoin.topk", dj, djSelf, share(djSelf, !hot), ndj},
		{"service.join", sj, svcSelf, share(svcSelf, !hot), nsj},
		{"service.hit", sh, sh, share(sh, hot), nsh},
		{"http.handler", hh, httpSelf, share(httpSelf, true), nh},
		{"njoind.tcp", tcp, tcpSelf, share(tcpSelf, true), nt},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func printLadder(w io.Writer, rows []ladderRow) {
	fmt.Fprintf(w, "  %-26s %12s %12s %10s %6s\n", "rung", "median ms", "self ms", "of tcp", "n")
	for _, r := range rows {
		share := "         -" // not on the path this workload's requests take
		if r.Share != nil {
			share = fmt.Sprintf("%9.1f%%", *r.Share*100)
		}
		fmt.Fprintf(w, "  %-26s %12.4f %12.4f %s %6d\n", r.Rung, r.Median, r.Self, share, r.N)
	}
}
