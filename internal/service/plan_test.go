package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/plan"
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
	if len(pl.Estimates) != 3 {
		t.Fatalf("2-way plan has %d estimates, want 3", len(pl.Estimates))
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
	if len(npl.Estimates) != 2 {
		t.Fatalf("n-way plan has %d estimates, want 2", len(npl.Estimates))
	}

	forced, err := svc.ExplainJoin2(ctx, "g", p, q, 10, Query{Algorithm: "B-IDJ-X"})
	if err != nil {
		t.Fatal(err)
	}
	if !forced.Forced || forced.Algorithm != "B-IDJ-X" {
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

// TestServicePlanPicks: repeated identical requests (the result cache is
// disabled to force re-planning on each) are each planned and counted as a
// pick, the retired plan-cache counter reads 0, and the warm session prices
// a plan exactly as a cold one does.
func TestServicePlanPicks(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{ResultCacheSize: -1})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}

	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 10)
	for i := 0; i < 3; i++ {
		got, err := svc.Join2(ctx, "g", p, q, 10, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("join %d: %d results, want %d", i, len(got), len(want))
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("join %d rank %d: %+v, want %+v", i, r, got[r], want[r])
			}
		}
	}
	st := svc.Stats()
	if st.PlanRequests < 3 {
		t.Fatalf("plan requests = %d, want >= 3", st.PlanRequests)
	}
	if total := sumPicks(st.PlanPicks); total < 3 {
		t.Fatalf("plan picks = %v, want three executions", st.PlanPicks)
	}
	if st.PlanCacheHits != 0 {
		t.Fatalf("plan cache hits = %d, want 0", st.PlanCacheHits)
	}

	cold := New(Config{})
	if err := cold.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	warmPlan, err := svc.ExplainJoin2(ctx, "g", p, q, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	coldPlan, err := cold.ExplainJoin2(ctx, "g", p, q, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmPlan, coldPlan) {
		t.Fatalf("warm plan %+v, cold plan %+v", warmPlan, coldPlan)
	}
}

func sumPicks(picks map[string]int64) int64 {
	var total int64
	for _, n := range picks {
		total += n
	}
	return total
}

// TestServiceForcedAlgorithm: forcing any served 2-way executor through
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
	for _, name := range []string{"B-IDJ-Y", "B-IDJ-X", "B-BJ"} {
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
	// The reproduction-only executors are not served.
	for _, name := range []string{"F-BJ", "F-IDJ"} {
		if _, err := svc.Join2(ctx, "g", p, q, 15, Query{Algorithm: name}); !errors.Is(err, plan.ErrUnknownExecutor) {
			t.Fatalf("forcing %s: %v", name, err)
		}
	}
	for _, name := range []string{"NL", "PJ"} {
		if _, err := svc.JoinN(ctx, "g",
			[]SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}},
			[][2]int{{0, 1}}, 5, Query{Algorithm: name}); !errors.Is(err, plan.ErrUnknownExecutor) {
			t.Fatalf("forcing %s: %v", name, err)
		}
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
	if pl["algorithm"] == "" || len(pl["estimates"].([]any)) != 3 {
		t.Fatalf("join2 plan = %v", pl)
	}

	code, out = post("/joinN", `{"graph":"g","sets":[{"set":"`+sets[0].Name+`"},{"set":"`+sets[1].Name+`"}],"shape":"chain","k":5,"explain":true}`)
	if code != http.StatusOK {
		t.Fatalf("joinN explain: %d %v", code, out)
	}
	if pl := planOf(out); len(pl["estimates"].([]any)) != 2 {
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
	for _, algo := range []string{"XXX", "F-BJ", "F-IDJ"} {
		if code, out = post("/join2", `{"graph":"g","p":{"set":"`+sets[0].Name+`"},"q":{"set":"`+sets[1].Name+`"},"k":5,"options":{"algo":"`+algo+`"}}`); code != http.StatusBadRequest {
			t.Fatalf("unknown algo %s: %d %v", algo, code, out)
		}
	}
	for _, algo := range []string{"NL", "PJ"} {
		if code, out = post("/joinN", `{"graph":"g","sets":[{"set":"`+sets[0].Name+`"},{"set":"`+sets[1].Name+`"}],"shape":"chain","k":5,"options":{"algo":"`+algo+`"}}`); code != http.StatusBadRequest {
			t.Fatalf("unknown n-way algo %s: %d %v", algo, code, out)
		}
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

// TestHTTPExplainPricesRunDemand: "explain":true reports the plan the same
// body runs without it — a page is priced for cursor+k, a stream for its
// initial batch — checked against the pick /stats records for the run.
func TestHTTPExplainPricesRunDemand(t *testing.T) {
	srv, svc, _, sets := serverFor(t, Config{ResultCacheSize: -1})
	all := sets[0].Len() * sets[1].Len()
	for _, tc := range []struct {
		name string
		body map[string]any
	}{
		{"stream of the whole space", map[string]any{"k": all, "stream": true}},
		{"last page", map[string]any{"k": 5, "cursor": all - 5}},
		{"first page", map[string]any{"k": 5}},
	} {
		body := map[string]any{
			"graph": "test",
			"p":     map[string]any{"set": sets[0].Name},
			"q":     map[string]any{"set": sets[1].Name},
		}
		for k, v := range tc.body {
			body[k] = v
		}
		body["explain"] = true
		var out struct {
			Plan struct {
				Algorithm string `json:"algorithm"`
			} `json:"plan"`
		}
		if code := postJSON(t, srv.URL+"/join2", body, &out); code != http.StatusOK {
			t.Fatalf("%s: explain = %d", tc.name, code)
		}
		delete(body, "explain")
		before := svc.Stats().PlanPicks[out.Plan.Algorithm]
		if body["stream"] == true {
			ndjsonLines(t, srv.URL+"/join2", body)
		} else if code := postJSON(t, srv.URL+"/join2", body, &struct{}{}); code != http.StatusOK {
			t.Fatalf("%s: run = %d", tc.name, code)
		}
		if picks := svc.Stats().PlanPicks; picks[out.Plan.Algorithm] != before+1 {
			t.Fatalf("%s: explain says %s, run picked %v", tc.name, out.Plan.Algorithm, picks)
		}
	}
}
