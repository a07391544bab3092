package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// startServer loads the test graph through the HTTP API and returns the
// httptest server plus the reference graph and sets.
func startServer(t *testing.T) (*httptest.Server, *graph.Graph, []*graph.NodeSet) {
	t.Helper()
	g, sets := testGraph(t)
	srv := httptest.NewServer(NewHandler(New(Config{})))
	t.Cleanup(srv.Close)

	var buf bytes.Buffer
	if err := graph.WriteText(&buf, g, sets...); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/graphs/test", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("PUT /graphs/test: %s: %s", resp.Status, body)
	}
	var info GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("load response %+v does not describe the graph", info)
	}
	return srv, g, sets
}

// postJSON posts a JSON body and decodes the JSON response into out.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd is the njoind integration test: load a graph over HTTP,
// fire concurrent join2 and joinN requests, and require every response to be
// bit-identical to the corresponding direct dhtjoin-equivalent call; then
// verify the stats endpoint moved monotonically.
func TestHTTPEndToEnd(t *testing.T) {
	srv, g, sets := startServer(t)

	want2 := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 10)
	wantN := refJoinN(t, g, sets, 5)

	var before Stats
	if code := getJSON(t, srv.URL+"/stats", &before); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}

	join2Req := map[string]any{
		"graph": "test",
		"p":     map[string]any{"set": sets[0].Name},
		"q":     map[string]any{"set": sets[1].Name},
		"k":     10,
	}
	joinNReq := map[string]any{
		"graph": "test",
		"sets": []map[string]any{
			{"set": sets[0].Name}, {"set": sets[1].Name}, {"set": sets[2].Name},
		},
		"shape": "chain",
		"k":     5,
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if (w+i)%2 == 0 {
					var out struct {
						Results []pairJSON `json:"results"`
					}
					if code := postJSON(t, srv.URL+"/join2", join2Req, &out); code != http.StatusOK {
						errs <- fmt.Errorf("POST /join2 = %d", code)
						return
					}
					if len(out.Results) != len(want2) {
						errs <- fmt.Errorf("join2: %d results, want %d", len(out.Results), len(want2))
						return
					}
					for r := range out.Results {
						if out.Results[r].P != want2[r].Pair.P ||
							out.Results[r].Q != want2[r].Pair.Q ||
							out.Results[r].Score != want2[r].Score {
							errs <- fmt.Errorf("join2 rank %d: %+v != %+v", r, out.Results[r], want2[r])
							return
						}
					}
				} else {
					var out struct {
						Answers []answerJSON `json:"answers"`
					}
					if code := postJSON(t, srv.URL+"/joinN", joinNReq, &out); code != http.StatusOK {
						errs <- fmt.Errorf("POST /joinN = %d", code)
						return
					}
					if len(out.Answers) != len(wantN) {
						errs <- fmt.Errorf("joinN: %d answers, want %d", len(out.Answers), len(wantN))
						return
					}
					for r := range out.Answers {
						if out.Answers[r].Score != wantN[r].Score {
							errs <- fmt.Errorf("joinN rank %d: score %v != %v", r, out.Answers[r].Score, wantN[r].Score)
							return
						}
						for j := range out.Answers[r].Nodes {
							if out.Answers[r].Nodes[j] != wantN[r].Nodes[j] {
								errs <- fmt.Errorf("joinN rank %d: nodes %v != %v", r, out.Answers[r].Nodes, wantN[r].Nodes)
								return
							}
						}
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

	var after Stats
	if code := getJSON(t, srv.URL+"/stats", &after); code != http.StatusOK {
		t.Fatalf("GET /stats = %d", code)
	}
	if after.Join2Requests <= before.Join2Requests || after.JoinNRequests <= before.JoinNRequests {
		t.Fatalf("request counters did not advance: %+v -> %+v", before, after)
	}
	if after.Walks < before.Walks || after.ResultMisses < before.ResultMisses {
		t.Fatalf("stats counters regressed: %+v -> %+v", before, after)
	}
	if after.ResultHits == 0 {
		t.Fatal("repeated identical requests produced no result-cache hits")
	}
}

// TestExplicitIDListsAreSets: "ids":[a,a,b] names the set {a, b}. Through the
// service call and through /join2 (batch and streamed) and /joinN, a repeated
// id must neither repeat a pair in the ranking nor miss the result cache the
// repeat-free spelling filled.
func TestExplicitIDListsAreSets(t *testing.T) {
	srv, g, sets := startServer(t)
	p, q := sets[0].Nodes()[:6], sets[1].Nodes()[:5]
	dupP := append(append([]graph.NodeID{}, p...), p[0], p[3], p[0])
	dupQ := append([]graph.NodeID{q[2], q[2]}, q...)
	firstQ := []graph.NodeID{q[2], q[0], q[1], q[3], q[4]} // dupQ's first occurrences
	want := refJoin2(t, g, p, q, 10)

	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	got, err := svc.Join2(context.Background(), "g", SetRef{IDs: dupP}, SetRef{IDs: dupQ}, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("svc.Join2: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("svc.Join2 rank %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	before := svc.Stats().ResultHits
	if _, err := svc.Join2(context.Background(), "g", SetRef{IDs: p}, SetRef{IDs: firstQ}, 10, Query{}); err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultHits != before+1 {
		t.Fatal("the repeat-free spelling of the same sets missed the result cache")
	}

	for _, stream := range []bool{false, true} {
		body, err := json.Marshal(map[string]any{
			"graph": "test", "p": map[string]any{"ids": dupP}, "q": map[string]any{"ids": dupQ}, "k": 10, "stream": stream,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/join2", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pairs []pairJSON
		dec := json.NewDecoder(resp.Body)
		for {
			var line struct {
				pairJSON
				Results []pairJSON `json:"results"`
				Done    bool       `json:"done"`
			}
			if err := dec.Decode(&line); err != nil {
				break
			}
			switch {
			case line.Results != nil:
				pairs = line.Results
			case !line.Done:
				pairs = append(pairs, line.pairJSON)
			}
		}
		resp.Body.Close()
		if len(pairs) != len(want) {
			t.Fatalf("POST /join2 stream=%v: %d results, want %d", stream, len(pairs), len(want))
		}
		for i, w := range want {
			if pairs[i].P != w.Pair.P || pairs[i].Q != w.Pair.Q || pairs[i].Score != w.Score {
				t.Fatalf("POST /join2 stream=%v rank %d = %+v, want %+v", stream, i, pairs[i], w)
			}
		}
	}

	var out struct {
		Answers []answerJSON `json:"answers"`
	}
	if code := postJSON(t, srv.URL+"/joinN", map[string]any{
		"graph": "test", "shape": "chain", "k": 40,
		"sets": []map[string]any{{"ids": dupP}, {"ids": dupQ}, {"ids": sets[2].Nodes()[:4]}},
	}, &out); code != http.StatusOK {
		t.Fatalf("POST /joinN = %d", code)
	}
	seen := map[string]bool{}
	for _, a := range out.Answers {
		if key := fmt.Sprint(a.Nodes); seen[key] {
			t.Fatalf("POST /joinN returned %v twice", a.Nodes)
		} else {
			seen[key] = true
		}
	}
}

// TestHTTPScoreAndGraphLifecycle covers /score, /graphs listing, and DELETE.
func TestHTTPScoreAndGraphLifecycle(t *testing.T) {
	srv, g, sets := startServer(t)
	u, v := sets[0].Nodes()[0], sets[1].Nodes()[0]

	// /score must equal the direct engine evaluation (dhtjoin.Score).
	svc := New(Config{})
	if err := svc.LoadGraph("ref", g, sets); err != nil {
		t.Fatal(err)
	}
	want, err := svc.Score(context.Background(), "ref", u, v, Query{})
	if err != nil {
		t.Fatal(err)
	}
	var scoreResp struct {
		Score float64 `json:"score"`
	}
	url := fmt.Sprintf("%s/score?graph=test&u=%d&v=%d", srv.URL, u, v)
	if code := getJSON(t, url, &scoreResp); code != http.StatusOK {
		t.Fatalf("GET /score = %d", code)
	}
	if scoreResp.Score != want {
		t.Fatalf("score = %v, want %v", scoreResp.Score, want)
	}

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	if code := getJSON(t, srv.URL+"/graphs", &list); code != http.StatusOK || len(list.Graphs) != 1 {
		t.Fatalf("GET /graphs = %d, %+v", code, list)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/graphs/test", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /graphs/test = %d", resp.StatusCode)
	}
	// Joins on the dropped graph now fail with a client error.
	var errResp map[string]any
	code := postJSON(t, srv.URL+"/join2", map[string]any{
		"graph": "test",
		"p":     map[string]any{"ids": []int{0}},
		"q":     map[string]any{"ids": []int{1}},
		"k":     1,
	}, &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("join2 on dropped graph = %d, want 400", code)
	}
}

// TestHTTPBadRequests: malformed bodies and unknown fields are rejected.
func TestHTTPBadRequests(t *testing.T) {
	srv, _, sets := startServer(t)
	var out map[string]any
	if code := postJSON(t, srv.URL+"/join2", map[string]any{
		"graph": "test", "bogus": 1,
	}, &out); code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", code)
	}
	// A retired option, with any value, on either GET route or in a POST
	// body, is a 400 that names the removal.
	var envelope struct {
		Error struct{ Message string } `json:"error"`
	}
	p, q := sets[0].Name, sets[1].Name
	for _, retired := range []struct {
		name  string
		value any
	}{{"relabel", "sideways"}, {"workers", 2}} {
		param := fmt.Sprintf("&%s=%v", retired.name, retired.value)
		for _, url := range []string{
			srv.URL + "/score?graph=test&u=0&v=1" + param,
			srv.URL + "/explain?graph=test&p=" + p + "&q=" + q + param,
		} {
			if code := getJSON(t, url, &envelope); code != http.StatusBadRequest || !strings.Contains(envelope.Error.Message, retired.name+": removed") {
				t.Fatalf("GET %s = %d %q, want 400 naming the removal", url, code, envelope.Error.Message)
			}
		}
		if code := postJSON(t, srv.URL+"/join2", map[string]any{
			"graph":   "test",
			"p":       map[string]any{"set": p},
			"q":       map[string]any{"set": q},
			"k":       5,
			"options": map[string]any{retired.name: retired.value},
		}, &envelope); code != http.StatusBadRequest || !strings.Contains(envelope.Error.Message, `"`+retired.name+`": removed`) {
			t.Fatalf("retired %s option = %d %q, want 400 naming the removal", retired.name, code, envelope.Error.Message)
		}
	}
	if code := postJSON(t, srv.URL+"/joinN", map[string]any{
		"graph": "test",
		"sets":  []map[string]any{{"set": sets[0].Name}, {"set": sets[1].Name}},
		"shape": "pentagram",
		"k":     5,
	}, &out); code != http.StatusBadRequest {
		t.Fatalf("bad shape = %d, want 400", code)
	}
}

// ndjsonLines posts a streaming request and returns the decoded NDJSON
// lines (results first, terminator or error object last).
func ndjsonLines(t *testing.T, url string, body any) ([]map[string]any, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream request = %d: %s", resp.StatusCode, raw)
	}
	ctype := resp.Header.Get("Content-Type")
	var lines []map[string]any
	dec := json.NewDecoder(resp.Body)
	for {
		var line map[string]any
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines, ctype
}

// TestHTTPStreamingJoin2: the NDJSON response must carry the same ranking
// as the batch endpoint, one result per line, with a done terminator.
func TestHTTPStreamingJoin2(t *testing.T) {
	srv, g, sets := startServer(t)
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 6)

	lines, ctype := ndjsonLines(t, srv.URL+"/join2", map[string]any{
		"graph":  "test",
		"p":      map[string]any{"set": sets[0].Name},
		"q":      map[string]any{"set": sets[1].Name},
		"k":      6,
		"stream": true,
	})
	if ctype != "application/x-ndjson" {
		t.Fatalf("content type %q", ctype)
	}
	if len(lines) != 7 {
		t.Fatalf("got %d lines, want 6 results + terminator", len(lines))
	}
	for i, wr := range want {
		line := lines[i]
		if graph.NodeID(line["p"].(float64)) != wr.Pair.P ||
			graph.NodeID(line["q"].(float64)) != wr.Pair.Q ||
			line["score"].(float64) != wr.Score {
			t.Fatalf("line %d = %v, want %+v", i, line, wr)
		}
	}
	last := lines[6]
	if last["done"] != true || last["count"].(float64) != 6 || last["exhausted"] != false {
		t.Fatalf("terminator = %v", last)
	}
	if last["next_cursor"].(float64) != 6 {
		t.Fatalf("terminator cursor = %v", last["next_cursor"])
	}
}

// TestHTTPStreamingJoinN: NDJSON for the n-way endpoint, including k=0
// (stream to exhaustion) and a cursor skip.
func TestHTTPStreamingJoinN(t *testing.T) {
	srv, g, sets := startServer(t)
	wantAll := refJoinN(t, g, sets, 1<<20)

	lines, _ := ndjsonLines(t, srv.URL+"/joinN", map[string]any{
		"graph":  "test",
		"sets":   []map[string]any{{"set": sets[0].Name}, {"set": sets[1].Name}, {"set": sets[2].Name}},
		"shape":  "chain",
		"k":      0,
		"cursor": 2,
		"stream": true,
	})
	last := lines[len(lines)-1]
	if last["done"] != true || last["exhausted"] != true {
		t.Fatalf("terminator = %v", last)
	}
	results := lines[:len(lines)-1]
	if len(results) != len(wantAll)-2 {
		t.Fatalf("streamed %d results, want %d after cursor 2", len(results), len(wantAll)-2)
	}
	for i, line := range results {
		wa := wantAll[i+2]
		if line["score"].(float64) != wa.Score {
			t.Fatalf("line %d score %v, want %v", i, line["score"], wa.Score)
		}
	}
	if last["next_cursor"].(float64) != float64(2+len(results)) {
		t.Fatalf("terminator next_cursor = %v", last["next_cursor"])
	}
}

// TestHTTPCursorPaging: two batch pages must concatenate to the one-shot
// ranking, with next_cursor/exhausted bookkeeping.
func TestHTTPCursorPaging(t *testing.T) {
	srv, g, sets := startServer(t)
	want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), 10)

	body := func(k, cursor int) map[string]any {
		return map[string]any{
			"graph":  "test",
			"p":      map[string]any{"set": sets[0].Name},
			"q":      map[string]any{"set": sets[1].Name},
			"k":      k,
			"cursor": cursor,
		}
	}
	var page1 struct {
		Results []pairJSON `json:"results"`
	}
	if code := postJSON(t, srv.URL+"/join2", body(5, 0), &page1); code != http.StatusOK {
		t.Fatalf("page 1 = %d", code)
	}
	var page2 struct {
		Results    []pairJSON `json:"results"`
		Cursor     int        `json:"cursor"`
		NextCursor int        `json:"next_cursor"`
		Exhausted  bool       `json:"exhausted"`
	}
	if code := postJSON(t, srv.URL+"/join2", body(5, 5), &page2); code != http.StatusOK {
		t.Fatalf("page 2 = %d", code)
	}
	if page2.Cursor != 5 || page2.NextCursor != 10 || page2.Exhausted {
		t.Fatalf("page 2 bookkeeping: %+v", page2)
	}
	got := append(page1.Results, page2.Results...)
	if len(got) != len(want) {
		t.Fatalf("pages total %d, want %d", len(got), len(want))
	}
	for i, wr := range want {
		if got[i].P != wr.Pair.P || got[i].Q != wr.Pair.Q || got[i].Score != wr.Score {
			t.Fatalf("paged rank %d = %+v, want %+v", i, got[i], wr)
		}
	}
}

// TestHTTPErrorEnvelope: every 4xx body must carry the consistent
// {"error": {"status", "message"}} envelope.
func TestHTTPErrorEnvelope(t *testing.T) {
	srv, _, sets := startServer(t)
	withOptions := func(opts map[string]any) map[string]any {
		return map[string]any{
			"graph":   "test",
			"p":       map[string]any{"set": sets[0].Name},
			"q":       map[string]any{"set": sets[1].Name},
			"k":       3,
			"options": opts,
		}
	}
	edit := func(adds ...map[string]any) map[string]any { return map[string]any{"add": adds} }
	manySets := func(n int) []map[string]any {
		refs := make([]map[string]any, n)
		for i := range refs {
			refs[i] = map[string]any{"set": sets[i%len(sets)].Name}
		}
		return refs
	}
	cases := []struct {
		name    string
		body    map[string]any
		message string // substring the envelope's message must carry
		path    string // default /join2
	}{
		{"bad k", map[string]any{
			"graph": "test",
			"p":     map[string]any{"set": sets[0].Name},
			"q":     map[string]any{"set": sets[1].Name},
			"k":     0,
		}, "", ""},
		{"missing graph", map[string]any{
			"graph": "nope",
			"p":     map[string]any{"set": sets[0].Name},
			"q":     map[string]any{"set": sets[1].Name},
			"k":     3,
		}, "", ""},
		{"negative cursor", map[string]any{
			"graph":  "test",
			"p":      map[string]any{"set": sets[0].Name},
			"q":      map[string]any{"set": sets[1].Name},
			"k":      3,
			"cursor": -1,
		}, "", ""},
		{"unknown set", map[string]any{
			"graph": "test",
			"p":     map[string]any{"set": "ghosts"},
			"q":     map[string]any{"set": sets[1].Name},
			"k":     3,
		}, "", ""},
		{"negative budget", withOptions(map[string]any{"budget_ms": -1}), "budget_ms must be >= 0", ""},
		// budget_ms past what a time.Duration holds would wrap to a tiny
		// (18446744073710 ms → 448 µs) or negative budget.
		{"budget past MaxInt64 ns", withOptions(map[string]any{"budget_ms": 9223372036855}), "budget_ms must be at most 9223372036854", ""},
		{"budget wrapping to 448µs", withOptions(map[string]any{"budget_ms": 18446744073710}), "budget_ms must be at most", ""},
		// Retired options are rejected by name, with what to do instead.
		{"retired accuracy option", withOptions(map[string]any{"accuracy": "fast"}), `"accuracy": removed`, ""},
		{"retired ppr option", withOptions(map[string]any{"ppr": true}), `"measure":"ppr"`, ""},
		{"retired relabel option", withOptions(map[string]any{"relabel": "degree"}), `"relabel": removed`, ""},
		{"retired relabel option on joinN", map[string]any{
			"graph":   "test",
			"sets":    []map[string]any{{"set": sets[0].Name}, {"set": sets[1].Name}},
			"k":       3,
			"options": map[string]any{"relabel": "degree"},
		}, `"relabel": removed`, "/joinN"},
		// An option that never existed is named by the strict decoder.
		{"unknown batch_width option", withOptions(map[string]any{"batch_width": 16}), `unknown field "batch_width"`, ""},
		// The set count is bounded before any shape expands.
		{"joinN over 65 sets", map[string]any{
			"graph": "test",
			"sets":  manySets(65),
			"shape": "clique",
			"k":     3,
		}, "65 sets named, at most 64", "/joinN"},
		{"joinN over 65 sets with explicit edges", map[string]any{
			"graph": "test",
			"sets":  manySets(65),
			"edges": [][2]int{{0, 1}},
			"k":     3,
		}, "at most 64", "/joinN"},
		// The batch form drains cursor+k results; the sum must not wrap.
		{"cursor plus k past MaxInt", map[string]any{
			"graph":  "test",
			"p":      map[string]any{"set": sets[0].Name},
			"q":      map[string]any{"set": sets[1].Name},
			"k":      5,
			"cursor": math.MaxInt - 1,
		}, "cursor 9223372036854775806 plus k 5 overflows", ""},
		// The retired certified executors fail as any unknown name does,
		// with the served ones listed.
		{"retired B-BJ-fast executor", withOptions(map[string]any{"algo": "B-BJ-fast"}), "B-IDJ-Y", ""},
		{"retired F-BJ-fast executor", withOptions(map[string]any{"algo": "F-BJ-fast"}), "B-IDJ-Y", ""},
		// An edit grows the 140-node graph by at most one node per add
		// endpoint; one add may name ids up to 141.
		{"edge add past the node limit", edit(map[string]any{"u": 5000000, "v": 1, "w": 1}), "at most 142", "/graphs/test/edges"},
		{"edge add at the largest id", edit(map[string]any{"u": 0, "v": math.MaxInt32, "w": 1}), "at most 142", "/graphs/test/edges"},
		{"edge add with zero weight", edit(map[string]any{"u": 0, "v": 1, "w": 0}), "invalid weight", "/graphs/test/edges"},
		{"edge adds summing past MaxFloat64", edit(map[string]any{"u": 0, "v": 1, "w": 1e308}, map[string]any{"u": 0, "v": 1, "w": 1e308}),
			"sums arc (0,1) to invalid weight +Inf", "/graphs/test/edges"},
		{"edge add with negative id", edit(map[string]any{"u": -1, "v": 1, "w": 1}), "negative endpoint", "/graphs/test/edges"},
		{"edge update with unknown field", map[string]any{"add": []any{}, "bogus": 1}, `unknown field "bogus"`, "/graphs/test/edges"},
		{"edge update of a missing graph", edit(map[string]any{"u": 0, "v": 1, "w": 1}), `no graph "nope"`, "/graphs/nope/edges"},
	}
	for _, tc := range cases {
		var out struct {
			Error struct {
				Status  int    `json:"status"`
				Message string `json:"message"`
			} `json:"error"`
		}
		path := tc.path
		if path == "" {
			path = "/join2"
		}
		code := postJSON(t, srv.URL+path, tc.body, &out)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, code)
		}
		if out.Error.Status != http.StatusBadRequest || out.Error.Message == "" || !strings.Contains(out.Error.Message, tc.message) {
			t.Fatalf("%s: envelope %+v, want a message carrying %q", tc.name, out.Error, tc.message)
		}
	}
}

// TestHTTPScoreQueryOptions: the GET routes' option parser rejects what it
// cannot read instead of silently scoring another measure — every spelling
// of dhte that strconv.ParseBool accepts selects (or deselects) DHTe, any
// other is a 400, and so is a retired parameter or an epsilon that is
// negative or not finite (strconv.ParseFloat reads "NaN" and "Inf").
func TestHTTPScoreQueryOptions(t *testing.T) {
	srv, g, sets := startServer(t)
	u, v := sets[0].Nodes()[0], sets[1].Nodes()[0]
	svc := New(Config{})
	if err := svc.LoadGraph("ref", g, sets); err != nil {
		t.Fatal(err)
	}
	lambda, err := svc.Score(context.Background(), "ref", u, v, Query{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := svc.Score(context.Background(), "ref", u, v, Query{Params: dht.DHTE()})
	if err != nil {
		t.Fatal(err)
	}
	if lambda == e {
		t.Fatal("DHTλ and DHTe agree on the probe pair; the table below would prove nothing")
	}
	for _, tc := range []struct {
		param string
		code  int
		want  float64
	}{
		{"dhte=1", http.StatusOK, e},
		{"dhte=true", http.StatusOK, e},
		{"dhte=TRUE", http.StatusOK, e},
		{"dhte=0", http.StatusOK, lambda},
		{"dhte=false", http.StatusOK, lambda},
		{"dhte=yes", http.StatusBadRequest, 0},
		{"accuracy=fast", http.StatusBadRequest, 0},
		{"ppr=true", http.StatusBadRequest, 0},
		{"relabel=degree", http.StatusBadRequest, 0},
		{"epsilon=NaN", http.StatusBadRequest, 0},
		{"epsilon=nan", http.StatusBadRequest, 0},
		{"epsilon=Inf", http.StatusBadRequest, 0},
		{"epsilon=-1e-6", http.StatusBadRequest, 0},
		{"epsilon=1e-6", http.StatusOK, lambda},
		// Node ids are int32: these would wrap onto node 0 in a wider
		// parse. The later u and v of the query string are ignored.
		{"u=4294967296", http.StatusBadRequest, 0},
		{"u=-4294967296", http.StatusBadRequest, 0},
		{"v=4294967296", http.StatusBadRequest, 0},
	} {
		var out struct {
			Score float64 `json:"score"`
		}
		url := fmt.Sprintf("%s/score?%s&graph=test&u=%d&v=%d", srv.URL, tc.param, u, v)
		if code := getJSON(t, url, &out); code != tc.code || out.Score != tc.want {
			t.Errorf("GET /score?%s = %d, score %v; want %d, score %v", tc.param, code, out.Score, tc.code, tc.want)
		}
	}
}

// TestHTTPQueryParseOrder: a GET query with several unparsable numbers is
// rejected for the first of lambda, epsilon, d, m, on every call. The
// parser once ranged over map literals, so the message named whichever bad
// value the map yielded first.
func TestHTTPQueryParseOrder(t *testing.T) {
	srv, _, sets := startServer(t)
	u, v := sets[0].Nodes()[0], sets[1].Nodes()[0]
	for _, tc := range []struct{ route, bad, want string }{
		{"score", "lambda=x&epsilon=y&d=a&m=b", `options: bad lambda "x"`},
		{"explain", "lambda=x&epsilon=y&d=a&m=b", `options: bad lambda "x"`},
		{"score", "epsilon=y&d=a&m=b", `options: bad epsilon "y"`},
		{"score", "m=b&d=a", `options: bad d "a"`},
		{"explain", "m=b&d=a", `options: bad d "a"`},
	} {
		url := fmt.Sprintf("%s/%s?%s&graph=test&u=%d&v=%d&p=C0&q=C1", srv.URL, tc.route, tc.bad, u, v)
		for i := 0; i < 40; i++ {
			var out struct {
				Error struct {
					Message string `json:"message"`
				} `json:"error"`
			}
			if code := getJSON(t, url, &out); code != http.StatusBadRequest || out.Error.Message != tc.want {
				t.Fatalf("GET /%s?%s call %d = %d %q; want 400 %q", tc.route, tc.bad, i, code, out.Error.Message, tc.want)
			}
		}
	}
}

// TestHTTPBoundsBeforeAllocation: a request that names a size the server
// would have to allocate for is a 400 before anything of that size exists.
// A clique GET /explain over 4 000 sets would expand to 7 998 000 edges, and
// the 15-byte body "graph 10000000" would build 10 M empty rows (~400 MB);
// each answer must cost less than fuzzAllocCap.
func TestHTTPBoundsBeforeAllocation(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("test", g, sets); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(svc)
	names := make([]string, 4000)
	for i := range names {
		names[i] = sets[i%len(sets)].Name
	}
	for _, tc := range []struct {
		req  *http.Request
		want string
	}{
		{httptest.NewRequest(http.MethodGet, "/explain?graph=test&shape=clique&sets="+strings.Join(names, ","), nil), "4000 sets named, at most 64"},
		{httptest.NewRequest(http.MethodGet, "/explain?graph=test&shape=chain&sets="+strings.Join(names[:65], ","), nil), "65 sets named, at most 64"},
		{httptest.NewRequest(http.MethodPut, "/graphs/big", strings.NewReader("graph 10000000\n")), "10000000 nodes declared by 15 bytes"},
		{httptest.NewRequest(http.MethodPut, "/graphs/big", strings.NewReader("graph 2147483648\n")), "bad node count"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		expect400(t, h, tc.req, tc.want)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > fuzzAllocCap {
			t.Fatalf("%s %s allocated %d MiB before its 400", tc.req.Method, tc.req.URL, grew>>20)
		}
	}
	// The largest query the bound admits still plans.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/explain?graph=test&shape=chain&sets="+strings.Join(names[:64], ","), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /explain over 64 sets = %d: %s", rec.Code, rec.Body)
	}
}
