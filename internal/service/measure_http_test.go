package service

// HTTP suites for the served measures: discovery (GET /measures), serving
// ppr, the unknown- and retired-measure error envelopes, canonical cache
// keys across the "dht"/"" spellings, and the per-measure counters in
// /stats and /metrics.

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/join2"
)

func TestHTTPMeasuresEndpoint(t *testing.T) {
	srv, _, _ := startServer(t)
	var out struct {
		Measures []struct {
			Name     string `json:"name"`
			Contract string `json:"contract"`
			Family   string `json:"family"`
			Walk     string `json:"walk"`
			Doc      string `json:"doc"`
		} `json:"measures"`
	}
	if code := getJSON(t, srv.URL+"/measures", &out); code != http.StatusOK {
		t.Fatalf("GET /measures = %d", code)
	}
	var names []string
	for _, m := range out.Measures {
		if m.Doc == "" || m.Contract != "exact" || m.Family != "walk" || m.Walk == "" {
			t.Fatalf("measure %q is not served as an exact walk kernel: %+v", m.Name, m)
		}
		names = append(names, m.Name)
	}
	if got := strings.Join(names, ","); got != "dht,ppr,reach" {
		t.Fatalf("GET /measures serves %s, want dht,ppr,reach", got)
	}
}

func TestHTTPUnknownMeasure(t *testing.T) {
	srv, _, sets := startServer(t)
	var out struct {
		Error struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	body := map[string]any{
		"graph":   "test",
		"p":       map[string]any{"set": sets[0].Name},
		"q":       map[string]any{"set": sets[1].Name},
		"k":       3,
		"options": map[string]any{"measure": "katz"},
	}
	if code := postJSON(t, srv.URL+"/join2", body, &out); code != http.StatusBadRequest {
		t.Fatalf("POST /join2 with unknown measure: status %d, want 400", code)
	}
	if !strings.Contains(out.Error.Message, "katz") || !strings.Contains(out.Error.Message, "reach") {
		t.Fatalf("/join2 error %q does not name the bad measure and the served ones", out.Error.Message)
	}
	out.Error.Message = ""
	if code := getJSON(t, srv.URL+"/score?graph=test&u=0&v=1&measure=katz", &out); code != http.StatusBadRequest {
		t.Fatalf("GET /score with unknown measure: status %d, want 400", code)
	}
	if !strings.Contains(out.Error.Message, "katz") {
		t.Fatalf("/score error %q does not name the bad measure", out.Error.Message)
	}

	// simrank left the server: every front end answers it with a 400 that
	// names the removal.
	body["options"] = map[string]any{"measure": "simrank"}
	bodyN := map[string]any{
		"graph":   "test",
		"sets":    []map[string]any{{"set": sets[0].Name}, {"set": sets[1].Name}, {"set": sets[2].Name}},
		"shape":   "chain",
		"k":       3,
		"options": map[string]any{"measure": "simrank"},
	}
	for _, tc := range []struct {
		route string
		do    func() int
	}{
		{"POST /join2", func() int { return postJSON(t, srv.URL+"/join2", body, &out) }},
		{"POST /joinN", func() int { return postJSON(t, srv.URL+"/joinN", bodyN, &out) }},
		{"GET /score", func() int { return getJSON(t, srv.URL+"/score?graph=test&u=0&v=1&measure=simrank", &out) }},
		{"GET /explain", func() int {
			return getJSON(t, srv.URL+"/explain?graph=test&p="+sets[0].Name+"&q="+sets[1].Name+"&measure=simrank", &out)
		}},
	} {
		out.Error.Message = ""
		if code := tc.do(); code != http.StatusBadRequest {
			t.Fatalf("%s with measure simrank: status %d, want 400", tc.route, code)
		}
		if !strings.Contains(out.Error.Message, "simrank") || !strings.Contains(out.Error.Message, "removed") {
			t.Fatalf("%s error %q does not name the removal", tc.route, out.Error.Message)
		}
	}
}

// TestHTTPJoinPPR serves ppr with its default parameterization and pins the
// ranking against the backward reach fold under dht.PPR(0.5).
func TestHTTPJoinPPR(t *testing.T) {
	srv, g, sets := startServer(t)
	params := dht.PPR(0.5)
	cfg := join2.Config{
		Graph: g, Params: params, D: params.StepsForEpsilon(1e-6),
		P: sets[0].Nodes(), Q: sets[1].Nodes(), Measure: dht.Reach,
	}
	j, err := join2.NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	want, err := j.TopK(k)
	if err != nil {
		t.Fatal(err)
	}

	req := map[string]any{
		"graph":   "test",
		"p":       map[string]any{"set": sets[0].Name},
		"q":       map[string]any{"set": sets[1].Name},
		"k":       k,
		"options": map[string]any{"measure": "ppr"},
	}
	var out struct {
		Results []pairJSON `json:"results"`
	}
	if code := postJSON(t, srv.URL+"/join2", req, &out); code != http.StatusOK {
		t.Fatalf("POST /join2 measure=ppr = %d", code)
	}
	if len(out.Results) != k {
		t.Fatalf("join2: %d results, want %d", len(out.Results), k)
	}
	for i, r := range out.Results {
		if r.P != want[i].Pair.P || r.Q != want[i].Pair.Q || r.Score != want[i].Score {
			t.Fatalf("join2 rank %d: %+v, reference says %+v", i, r, want[i])
		}
	}
}

// TestHTTPMeasureCanonicalization: "measure":"dht" and no measure at all
// resolve to the same canonical query, so they share one result-cache entry
// and return identical bytes.
func TestHTTPMeasureCanonicalization(t *testing.T) {
	srv, g, sets := startServer(t)
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 5)

	run := func(measure string) []pairJSON {
		req := map[string]any{
			"graph": "test",
			"p":     map[string]any{"set": sets[0].Name},
			"q":     map[string]any{"set": sets[1].Name},
			"k":     5,
		}
		if measure != "" {
			req["options"] = map[string]any{"measure": measure}
		}
		var out struct {
			Results []pairJSON `json:"results"`
		}
		if code := postJSON(t, srv.URL+"/join2", req, &out); code != http.StatusOK {
			t.Fatalf("POST /join2 (measure %q) = %d", measure, code)
		}
		return out.Results
	}

	first := run("")
	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	second := run("dht")
	var st2 Stats
	getJSON(t, srv.URL+"/stats", &st2)

	if st2.ResultHits <= st.ResultHits {
		t.Fatalf("explicit dht spelling missed the result cache (%d -> %d hits)", st.ResultHits, st2.ResultHits)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rank %d: %+v vs %+v", i, first[i], second[i])
		}
		if first[i].P != want[i].Pair.P || first[i].Score != want[i].Score {
			t.Fatalf("rank %d: %+v, reference says %+v", i, first[i], want[i])
		}
	}
}

// TestHTTPMeasureCounters: per-measure counters reach /stats and /metrics.
func TestHTTPMeasureCounters(t *testing.T) {
	srv, _, sets := startServer(t)
	for _, measure := range []string{"", "reach", "ppr"} {
		req := map[string]any{
			"graph": "test",
			"p":     map[string]any{"set": sets[0].Name},
			"q":     map[string]any{"set": sets[1].Name},
			"k":     3,
		}
		if measure != "" {
			req["options"] = map[string]any{"measure": measure}
		}
		var out struct{}
		if code := postJSON(t, srv.URL+"/join2", req, &out); code != http.StatusOK {
			t.Fatalf("POST /join2 (measure %q) = %d", measure, code)
		}
	}

	var st Stats
	if code := getJSON(t, srv.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	for _, name := range []string{"dht", "reach", "ppr"} {
		if st.MeasureQueries[name] == 0 {
			t.Fatalf("measure_queries missing %q: %v", name, st.MeasureQueries)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, sample := range []string{
		`njoind_measure_queries_total{measure="dht"}`,
		`njoind_measure_queries_total{measure="reach"}`,
		`njoind_measure_queries_total{measure="ppr"}`,
	} {
		if !strings.Contains(text, sample) {
			t.Fatalf("/metrics missing %s:\n%s", sample, text)
		}
	}
}
