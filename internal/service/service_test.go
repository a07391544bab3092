package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/rankjoin"
)

// testGraph builds a labeled community graph with three declared sets.
func testGraph(t testing.TB) (*graph.Graph, []*graph.NodeSet) {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{50, 50, 40}, PIn: 0.12, POut: 0.05, Seed: 7, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, sets
}

// refJoin2 evaluates the one-shot reference for a 2-way join, bypassing the
// service entirely.
func refJoin2(t testing.TB, g *graph.Graph, p, q []graph.NodeID, k int) []join2.Result {
	t.Helper()
	params := dht.DHTLambda(0.2)
	cfg := join2.Config{Graph: g, Params: params, D: params.StepsForEpsilon(1e-6), P: p, Q: q}
	j, err := join2.NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// refJoinN evaluates the one-shot n-way reference (chain query).
func refJoinN(t testing.TB, g *graph.Graph, sets []*graph.NodeSet, k int) []core.Answer {
	t.Helper()
	params := dht.DHTLambda(0.2)
	qg := core.Chain(sets...)
	spec := core.Spec{
		Graph: g, Query: qg, Params: params, D: params.StepsForEpsilon(1e-6),
		Agg: rankjoin.Min, K: k,
	}
	alg, err := core.NewPJI(spec, 50)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := alg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return answers
}

func sameResults(a, b []join2.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameAnswers(a, b []core.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].Nodes) != len(b[i].Nodes) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}

func TestServiceRegistry(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{MaxGraphs: 2})
	if err := svc.LoadGraph("a", g, sets); err != nil {
		t.Fatal(err)
	}
	if err := svc.LoadGraph("b", g, sets); err != nil {
		t.Fatal(err)
	}
	if err := svc.LoadGraph("c", g, sets); err == nil {
		t.Fatal("registry over capacity accepted a third graph")
	}
	// Replacing a loaded name is allowed at capacity.
	if err := svc.LoadGraph("b", g, sets); err != nil {
		t.Fatalf("replace failed: %v", err)
	}
	infos := svc.Graphs()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("Graphs() = %+v", infos)
	}
	if infos[0].Nodes != g.NumNodes() || len(infos[0].Sets) != len(sets) {
		t.Fatalf("GraphInfo = %+v", infos[0])
	}
	if ok, err := svc.DropGraph("a"); !ok || err != nil {
		t.Fatalf("DropGraph(a) = %v, %v", ok, err)
	}
	if ok, err := svc.DropGraph("a"); ok || err != nil {
		t.Fatalf("second DropGraph(a) = %v, %v", ok, err)
	}
	if _, err := svc.Join2(context.Background(), "a", SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}, 5, Query{}); err == nil {
		t.Fatal("join on dropped graph succeeded")
	}
}

func TestServiceLoadGraphText(t *testing.T) {
	g, sets := testGraph(t)
	var buf bytes.Buffer
	if err := graph.WriteText(&buf, g, sets...); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	info, err := svc.LoadGraphText("g", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "g" || info.Nodes != g.NumNodes() || len(info.Sets) != len(sets) {
		t.Fatalf("LoadGraphText info = %+v", info)
	}
	got, err := svc.Join2(context.Background(), "g", SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 10)
	if !sameResults(got, want) {
		t.Fatalf("text-loaded join differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestServiceJoin2BitIdentical: served results — cold, cached,
// explicit-id sets — must be bit-identical to the one-shot join.
func TestServiceJoin2BitIdentical(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 15)
	for round := 0; round < 3; round++ { // round 0 cold, 1-2 served from LRU
		got, err := svc.Join2(context.Background(), "g", SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}, 15, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResults(got, want) {
			t.Fatalf("round %d differs from one-shot:\n got %+v\nwant %+v", round, got, want)
		}
	}
	st := svc.Stats()
	if st.ResultHits != 2 || st.ResultMisses != 1 {
		t.Fatalf("result cache hits/misses = %d/%d, want 2/1", st.ResultHits, st.ResultMisses)
	}
	// Explicit id lists must not change anything.
	got, err := svc.Join2(context.Background(), "g",
		SetRef{IDs: sets[0].Nodes()}, SetRef{IDs: sets[1].Nodes()}, 15, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(got, want) {
		t.Fatal("explicit-id join differs from one-shot")
	}
}

// TestServiceJoinNBitIdentical: n-way serving must match the one-shot PJ-i.
func TestServiceJoinNBitIdentical(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	want := refJoinN(t, g, sets, 8)
	refs := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}, {Name: sets[2].Name}}
	edges := [][2]int{{0, 1}, {1, 2}}
	for round := 0; round < 2; round++ {
		got, err := svc.JoinN(context.Background(), "g", refs, edges, 8, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("round %d: n-way differs:\n got %+v\nwant %+v", round, got, want)
		}
	}
	// Mutating a served answer must not corrupt the cache.
	got, err := svc.JoinN(context.Background(), "g", refs, edges, 8, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		got[0].Nodes[0] = -999
	}
	again, err := svc.JoinN(context.Background(), "g", refs, edges, 8, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(again, want) {
		t.Fatal("cached answers were mutated through a served copy")
	}
}

// TestServiceScore matches the one-shot dhtjoin.Score semantics.
func TestServiceScore(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	params := dht.DHTLambda(0.2)
	d := params.StepsForEpsilon(1e-6)
	e, err := dht.NewBatchEngine(g, params, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	u, v := sets[0].Nodes()[0], sets[1].Nodes()[0]
	want := e.ForwardScore(dht.FirstHit, u, v, d)
	got, err := svc.Score(context.Background(), "g", u, v, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	if _, err := svc.Score(context.Background(), "g", -1, v, Query{}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestServiceConcurrent drives one service from many goroutines (run under
// -race in CI): mixed join2/joinN/score traffic over shared sessions and
// the result LRU, with every response checked against the
// serial reference.
func TestServiceConcurrent(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{MaxConcurrency: 4})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	want2 := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 12)
	wantN := refJoinN(t, g, sets, 6)
	refs := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}, {Name: sets[2].Name}}
	edges := [][2]int{{0, 1}, {1, 2}}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (w + i) % 3 {
				case 0:
					got, err := svc.Join2(context.Background(), "g", SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}, 12, Query{})
					if err != nil {
						errs <- err
						return
					}
					if !sameResults(got, want2) {
						errs <- fmt.Errorf("caller %d iter %d: join2 mismatch", w, i)
						return
					}
				case 1:
					got, err := svc.JoinN(context.Background(), "g", refs, edges, 6, Query{})
					if err != nil {
						errs <- err
						return
					}
					if !sameAnswers(got, wantN) {
						errs <- fmt.Errorf("caller %d iter %d: joinN mismatch", w, i)
						return
					}
				default:
					if _, err := svc.Score(context.Background(), "g", sets[0].Nodes()[w], sets[1].Nodes()[i], Query{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Join2Requests == 0 || st.JoinNRequests == 0 || st.ScoreRequests == 0 {
		t.Fatalf("request counters did not move: %+v", st)
	}
	if st.Walks == 0 {
		t.Fatalf("walk counters did not move: %+v", st)
	}
}

// TestServiceSessionEviction: overflowing MaxSessions retires the oldest
// session, and a request for its configuration rebuilds it and serves the
// ranking at that configuration's depth.
func TestServiceSessionEviction(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{MaxSessions: 2})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}
	for _, d := range []int{3, 4, 5} { // distinct d → distinct sessions
		if _, err := svc.Join2(context.Background(), "g", p, q, 5, Query{D: d}); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Sessions; got != 2 {
		t.Fatalf("Sessions = %d, want 2", got)
	}
	// The evicted d=3 session rebuilds on demand and still serves correctly.
	j, err := join2.NewBIDJY(join2.Config{Graph: g, Params: dht.DHTLambda(0.2), D: 3, P: sets[0].Nodes(), Q: sets[1].Nodes()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.TopK(5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Join2(context.Background(), "g", p, q, 5, Query{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(res, want) {
		t.Fatalf("rebuilt d=3 session served %+v, want %+v", res, want)
	}
}

// sameNameAgg is a custom aggregate whose Name collides with another
// implementation's — the case the result cache must not conflate.
type sameNameAgg struct{ scale float64 }

func (a sameNameAgg) Name() string { return "CUSTOM" }
func (a sameNameAgg) Combine(scores []float64) float64 {
	s := 0.0
	for _, v := range scores {
		s += v
	}
	return s * a.scale
}

// TestServiceCustomAggregateNotConflated: two distinct aggregates sharing a
// Name() must never serve each other's cached answers — custom aggregates
// bypass the result cache, whose key identifies built-ins by name only.
func TestServiceCustomAggregateNotConflated(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	refs := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}}
	edges := [][2]int{{0, 1}}
	a, err := svc.JoinN(context.Background(), "g", refs, edges, 4, Query{Agg: sameNameAgg{scale: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.JoinN(context.Background(), "g", refs, edges, 4, Query{Agg: sameNameAgg{scale: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(b) == 0 {
		t.Fatal("empty answers")
	}
	if a[0].Score == b[0].Score {
		t.Fatalf("scaled aggregate served the unscaled aggregate's results (%v)", a[0].Score)
	}
}

// TestServiceDropDuringSessionBuild: a session built for a graph that was
// dropped mid-build must still serve its request but must not be retained
// (it would pin the dropped graph's memory unreachably).
func TestServiceDropDuringSessionBuild(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	ge, err := svc.graphFor("g")
	if err != nil {
		t.Fatal(err)
	}
	svc.DropGraph("g")
	// Simulate the in-flight request that resolved ge before the drop.
	params := dht.DHTLambda(0.2)
	if _, err := svc.sessionFor(ge, params, 4, "dht"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Sessions; got != 0 {
		t.Fatalf("session for dropped graph was retained (Sessions = %d)", got)
	}
}

// TestServiceNegativeLimits: sizing knobs below 1 that have no meaningful
// disabled state must fall back to defaults instead of wedging (a negative
// MaxSessions used to panic session eviction on an empty order slice).
func TestServiceNegativeLimits(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{MaxGraphs: -1, MaxSessions: -1, MaxConcurrency: -1})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Join2(context.Background(), "g", SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}, 5, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results, want 5", len(res))
	}
}

// TestRefKeyNoCollisions: the result-cache key must keep adversarial set
// names apart — a name containing the key delimiters must not alias a
// different (p, q) split.
func TestRefKeyNoCollisions(t *testing.T) {
	key := func(p, q SetRef) string {
		var sb strings.Builder
		refKey(&sb, p)
		sb.WriteByte('|')
		refKey(&sb, q)
		return sb.String()
	}
	a := key(SetRef{Name: "a|n1:b"}, SetRef{Name: "c"})
	b := key(SetRef{Name: "a"}, SetRef{Name: "b|n1:c"})
	if a == b {
		t.Fatalf("delimiter-bearing names collided: %q", a)
	}
	c := key(SetRef{IDs: []graph.NodeID{1, 23}}, SetRef{IDs: []graph.NodeID{4}})
	d := key(SetRef{IDs: []graph.NodeID{1}}, SetRef{IDs: []graph.NodeID{23, 4}})
	if c == d {
		t.Fatalf("id lists collided across the p/q split: %q", c)
	}
}

// TestAdmission pins the grant semantics: one token per request, a request
// past the total waits, and a release wakes it.
func TestAdmission(t *testing.T) {
	ctx := context.Background()
	a := newAdmission(2, maxQueued)
	g1, err := a.acquire(ctx, classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := a.acquire(ctx, classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if free, _, _ := a.snapshot(); free != 0 {
		t.Fatalf("two grants left %d of 2 tokens free, want 0", free)
	}
	done := make(chan *grant)
	go func() {
		g, err := a.acquire(ctx, classInteractive)
		if err != nil {
			t.Error(err)
		}
		done <- g
	}()
	waitFor(t, func() bool { _, waiting, _ := a.snapshot(); return waiting == 1 })
	a.release(g1)
	a.release(<-done)
	a.release(g2)
	if free, waiting, _ := a.snapshot(); free != 2 || waiting != 0 {
		t.Fatalf("final state free=%d waiting=%d, want 2/0", free, waiting)
	}
}

// TestAdmissionHonorsContext: a waiter whose request context dies must stop
// occupying the queue and report the context error.
func TestAdmissionHonorsContext(t *testing.T) {
	a := newAdmission(1, maxQueued)
	held, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	// All tokens held: a cancelled waiter must abort rather than block.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() {
		_, err := a.acquire(ctx, classInteractive)
		errc <- err
	}()
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	// Pre-cancelled contexts never touch the tokens.
	if g, err := a.acquire(ctx, classInteractive); err == nil || g != nil {
		t.Fatalf("pre-cancelled acquire = %+v, %v", g, err)
	}
	a.release(held)
	if g, err := a.acquire(context.Background(), classInteractive); err != nil || g == nil {
		t.Fatalf("post-release acquire = %+v, %v", g, err)
	}
}

// TestUnknownPriorityRejected: a library caller's Priority outside the two
// classes fails the request at every entry point instead of running it as
// interactive, and never reaches admission.
func TestUnknownPriorityRejected(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refs := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}}
	u, v := sets[0].Nodes()[0], sets[1].Nodes()[0]
	for _, priority := range []int{-1, 2, 7} {
		q := Query{Priority: priority}
		calls := map[string]func() error{
			"Join2": func() error {
				_, err := svc.Join2(ctx, "g", refs[0], refs[1], 5, q)
				return err
			},
			"OpenJoinN": func() error {
				st, err := svc.OpenJoinN(ctx, "g", refs, [][2]int{{0, 1}}, q)
				if err == nil {
					st.Stop()
				}
				return err
			},
			"Score": func() error {
				_, err := svc.Score(ctx, "g", u, v, q)
				return err
			},
		}
		for name, call := range calls {
			if err := call(); err == nil || !strings.Contains(err.Error(), "priority") {
				t.Errorf("%s with priority %d: err = %v, want an unknown-priority error", name, priority, err)
			}
		}
	}
	if st := svc.Stats(); st.Walks != 0 || st.AdmissionFree != svc.cfg.MaxConcurrency {
		t.Fatalf("rejected requests did work: walks %d, free tokens %d", st.Walks, st.AdmissionFree)
	}
}

// TestServiceStatsMonotone: every int64 counter in Stats must be
// non-decreasing across request activity, session eviction included.
func TestServiceStatsMonotone(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{MaxSessions: 1})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}
	prev := svc.Stats()
	check := func(cur Stats) {
		t.Helper()
		type pair struct {
			name     string
			old, new int64
		}
		for _, c := range []pair{
			{"join2", prev.Join2Requests, cur.Join2Requests},
			{"joinN", prev.JoinNRequests, cur.JoinNRequests},
			{"score", prev.ScoreRequests, cur.ScoreRequests},
			{"rhits", prev.ResultHits, cur.ResultHits},
			{"rmiss", prev.ResultMisses, cur.ResultMisses},
			{"walks", prev.Walks, cur.Walks},
			{"sweeps", prev.EdgeSweeps, cur.EdgeSweeps},
			{"frontier", prev.FrontierEdges, cur.FrontierEdges},
		} {
			if c.new < c.old {
				t.Fatalf("counter %s decreased: %d -> %d", c.name, c.old, c.new)
			}
		}
		prev = cur
	}
	for i, d := range []int{3, 4, 3, 5, 4} { // session churn under MaxSessions=1
		if _, err := svc.Join2(context.Background(), "g", p, q, 4, Query{D: d}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := svc.Score(context.Background(), "g", 0, 1, Query{D: d}); err != nil {
				t.Fatal(err)
			}
		}
		check(svc.Stats())
	}
}

// BenchmarkServiceRepeatedJoin2 vs BenchmarkOneShotRepeatedJoin2: the
// acceptance benchmark — a repeated-query workload through the service's
// shared pools/caches against per-request construction.
func BenchmarkServiceRepeatedJoin2(b *testing.B) {
	g, sets := testGraph(b)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		b.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Join2(context.Background(), "g", p, q, 20, Query{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneShotRepeatedJoin2(b *testing.B) {
	g, sets := testGraph(b)
	params := dht.DHTLambda(0.2)
	d := params.StepsForEpsilon(1e-6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := join2.Config{Graph: g, Params: params, D: d, P: sets[0].Nodes(), Q: sets[1].Nodes()}
		j, err := join2.NewBIDJY(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.TopK(20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceColdResultJoin2 measures the shared-pool path with
// the result LRU defeated (distinct k per iteration pattern), isolating the
// engine-reuse win from the result-cache win.
func BenchmarkServiceColdResultJoin2(b *testing.B) {
	g, sets := testGraph(b)
	svc := New(Config{ResultCacheSize: -1})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		b.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Join2(context.Background(), "g", p, q, 20, Query{}); err != nil {
			b.Fatal(err)
		}
	}
}
