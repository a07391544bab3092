package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestServiceExplain pins the dry-run planner surface: plans for both query
// forms with every candidate priced, and the forced flag honored.
func TestServiceExplain(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}

	pl, err := svc.ExplainJoin2(ctx, "g", p, q, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Estimates) != 5 {
		t.Fatalf("2-way plan has %d estimates, want 5", len(pl.Estimates))
	}
	if pl.Algorithm != pl.Estimates[0].Algorithm || pl.Forced {
		t.Fatalf("plan = %+v", pl)
	}

	npl, err := svc.ExplainJoinN(ctx, "g",
		[]SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}, {Name: sets[2].Name}},
		[][2]int{{0, 1}, {1, 2}}, 0, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(npl.Estimates) != 4 {
		t.Fatalf("n-way plan has %d estimates, want 4", len(npl.Estimates))
	}

	forced, err := svc.ExplainJoin2(ctx, "g", p, q, 10, Query{Algorithm: "F-BJ"})
	if err != nil {
		t.Fatal(err)
	}
	if !forced.Forced || forced.Algorithm != "F-BJ" {
		t.Fatalf("forced plan = %+v", forced)
	}
	if _, err := svc.ExplainJoin2(ctx, "g", p, q, 10, Query{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown forced algorithm accepted")
	}

	// Explain is a dry run: no executions were recorded.
	if st := svc.Stats(); len(st.PlanPicks) != 0 || st.PlanRequests == 0 {
		t.Fatalf("stats after explains: %+v", st)
	}
}

// TestServicePlanCacheAndPicks: repeated identical requests hit the plan
// cache (the result cache is disabled to force re-planning on each), picks
// are counted, and the calibration feedback loop records the observed run.
func TestServicePlanCacheAndPicks(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{ResultCacheSize: -1})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}

	first, err := svc.Join2(ctx, "g", p, q, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 10)
	if len(first) != len(want) {
		t.Fatalf("first join: %d results, want %d", len(first), len(want))
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("rank %d: %+v, want %+v", i, first[i], want[i])
		}
	}

	// The session observed the first run; its calibration must have data.
	svc.mu.Lock()
	if len(svc.sessions) != 1 {
		svc.mu.Unlock()
		t.Fatalf("sessions = %d, want 1", len(svc.sessions))
	}
	var sess *session
	for _, s := range svc.sessions {
		sess = s
	}
	svc.mu.Unlock()
	if sess.calib.Samples() == 0 {
		t.Fatal("calibration saw no feedback after a completed join")
	}

	// Request 2 re-plans: the first run's calibration feedback moved the
	// generation (the cost unit went from analytic to observed). Request 3
	// sees a stable generation — identical runs cannot drift the EWMA —
	// and must hit the plan cache.
	for i := 0; i < 2; i++ {
		if _, err := svc.Join2(ctx, "g", p, q, 10, Query{}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.PlanRequests < 3 {
		t.Fatalf("plan requests = %d, want >= 3", st.PlanRequests)
	}
	if total := sumPicks(st.PlanPicks); total < 3 {
		t.Fatalf("plan picks = %v, want three executions", st.PlanPicks)
	}
	if st.PlanCacheHits == 0 {
		t.Fatalf("no plan cache hits: %+v", st)
	}
}

func sumPicks(picks map[string]int64) int64 {
	var total int64
	for _, n := range picks {
		total += n
	}
	return total
}

// TestServiceForcedAlgorithm: forcing any registered 2-way executor through
// Query.Algorithm serves the bit-identical ranking, and bad names fail.
func TestServiceForcedAlgorithm(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{ResultCacheSize: -1})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 15)
	for _, name := range []string{"B-IDJ-Y", "B-IDJ-X", "B-BJ", "F-BJ", "F-IDJ"} {
		got, err := svc.Join2(ctx, "g", p, q, 15, Query{Algorithm: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s rank %d: %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	if _, err := svc.Join2(ctx, "g", p, q, 15, Query{Algorithm: "PJ-i"}); err == nil {
		t.Fatal("n-way executor accepted on a 2-way request")
	}
	if _, err := svc.JoinN(ctx, "g",
		[]SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}},
		[][2]int{{0, 1}}, 5, Query{Algorithm: "AP"}); err != nil {
		t.Fatalf("forcing AP n-way: %v", err)
	}
}

// TestHTTPExplain covers the wire surface: explain:true dry runs on both
// join endpoints, the GET /explain route, forced algorithms via options,
// and the planner counters in /stats.
func TestHTTPExplain(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	post := func(path, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	planOf := func(out map[string]any) map[string]any {
		t.Helper()
		pl, ok := out["plan"].(map[string]any)
		if !ok {
			t.Fatalf("no plan in %v", out)
		}
		return pl
	}

	code, out := post("/join2", `{"graph":"g","p":{"set":"`+sets[0].Name+`"},"q":{"set":"`+sets[1].Name+`"},"k":10,"explain":true}`)
	if code != http.StatusOK {
		t.Fatalf("join2 explain: %d %v", code, out)
	}
	pl := planOf(out)
	if pl["algorithm"] == "" || len(pl["estimates"].([]any)) != 5 {
		t.Fatalf("join2 plan = %v", pl)
	}

	code, out = post("/joinN", `{"graph":"g","sets":[{"set":"`+sets[0].Name+`"},{"set":"`+sets[1].Name+`"}],"shape":"chain","k":5,"explain":true}`)
	if code != http.StatusOK {
		t.Fatalf("joinN explain: %d %v", code, out)
	}
	if pl := planOf(out); len(pl["estimates"].([]any)) != 4 {
		t.Fatalf("joinN plan = %v", pl)
	}

	// Forced algorithm over the wire serves identical results.
	code, def := post("/join2", `{"graph":"g","p":{"set":"`+sets[0].Name+`"},"q":{"set":"`+sets[1].Name+`"},"k":5}`)
	if code != http.StatusOK {
		t.Fatalf("default join2: %d %v", code, def)
	}
	code, forced := post("/join2", `{"graph":"g","p":{"set":"`+sets[0].Name+`"},"q":{"set":"`+sets[1].Name+`"},"k":5,"options":{"algo":"B-BJ"}}`)
	if code != http.StatusOK {
		t.Fatalf("forced join2: %d %v", code, forced)
	}
	if defJSON, forcedJSON := jsonString(t, def["results"]), jsonString(t, forced["results"]); defJSON != forcedJSON {
		t.Fatalf("forced B-BJ differs from default:\n%s\n%s", forcedJSON, defJSON)
	}
	if code, out = post("/join2", `{"graph":"g","p":{"set":"`+sets[0].Name+`"},"q":{"set":"`+sets[1].Name+`"},"k":5,"options":{"algo":"XXX"}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown algo: %d %v", code, out)
	}

	// GET /explain for both forms.
	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	code, out = get("/explain?graph=g&p=" + sets[0].Name + "&q=" + sets[1].Name + "&k=10")
	if code != http.StatusOK {
		t.Fatalf("GET /explain 2-way: %d %v", code, out)
	}
	planOf(out)
	code, out = get("/explain?graph=g&sets=" + sets[0].Name + "," + sets[1].Name + "," + sets[2].Name + "&shape=triangle")
	if code != http.StatusOK {
		t.Fatalf("GET /explain n-way: %d %v", code, out)
	}
	planOf(out)
	if code, out = get("/explain?graph=g&p=nope&q=" + sets[1].Name); code != http.StatusBadRequest {
		t.Fatalf("GET /explain bad set: %d %v", code, out)
	}

	// /stats surfaces the planner counters after a real execution.
	if code, _ := post("/join2", `{"graph":"g","p":{"set":"`+sets[0].Name+`"},"q":{"set":"`+sets[1].Name+`"},"k":5}`); code != http.StatusOK {
		t.Fatal("warm-up join failed")
	}
	code, stats := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if stats["plan_requests"].(float64) == 0 {
		t.Fatalf("stats missing plan_requests: %v", stats)
	}
	if _, ok := stats["plan_picks"].(map[string]any); !ok {
		t.Fatalf("stats missing plan_picks: %v", stats)
	}
}

func jsonString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
