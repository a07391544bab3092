package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fuzzAllocCap bounds what one fuzzed request may allocate. The graph has
// 140 nodes and the bodies are a few hundred bytes, so anything near this is
// an allocation sized by a number the client sent.
const fuzzAllocCap = 64 << 20

// FuzzJoinBodies: whatever bytes arrive as a POST /join2 or /joinN body, the
// strict decoder and the request path behind it answer a 2xx or a typed 4xx
// envelope — never a panic (withRecover turns one into a 500), never a
// mid-stream failure, never an allocation sized by the request's numbers.
// MaxBudget is what bounds the time of a body that asks for a deep walk.
// The seed corpus runs under plain `go test`.
func FuzzJoinBodies(f *testing.F) {
	g, sets := testGraph(f)
	svc := New(Config{MaxBudget: 50 * time.Millisecond})
	if err := svc.LoadGraph("test", g, sets); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(svc)

	pair := fmt.Sprintf(`"graph":"test","p":{"set":%q},"q":{"set":%q}`, sets[0].Name, sets[1].Name)
	tuple := fmt.Sprintf(`"graph":"test","sets":[{"set":%q},{"set":%q},{"set":%q}]`, sets[0].Name, sets[1].Name, sets[2].Name)
	longIDs := strings.TrimSuffix(strings.Repeat("3,141,", 4096), ",")
	for _, seed := range []struct {
		joinN bool
		body  string
	}{
		{false, `{` + pair + `,"k":5}`},
		{false, `{` + pair + `,"k":0,"stream":true}`},
		{false, `{` + pair + `,"k":3,"cursor":4,"options":{"algo":"B-BJ"}}`},
		{false, `{` + pair + `,"k":5,"explain":true,"options":{"measure":"ppr","lambda":0.3}}`},
		{false, `{` + pair + `,"k":5,"options":{"accuracy":"fast"}}`},
		{false, `{` + pair + `,"k":5,"options":{"ppr":true}}`},
		{false, `{` + pair + `,"k":5,"options":{"epsilon":-1}}`},
		{false, `{` + pair + `,"k":5,"options":{"d":1000000000000}}`},
		{false, `{` + pair + `,"k":9223372036854775807,"cursor":9223372036854775807}`},
		{false, `{"graph":"test","p":{"ids":[` + longIDs + `]},"q":{"ids":[0,1,2]},"k":5}`},
		{false, `{"graph":"test","bogus":1}`},
		{false, `{`},
		{true, `{` + tuple + `,"k":4}`},
		{true, `{` + tuple + `,"shape":"triangle","k":2,"stream":true,"options":{"agg":"SUM","m":7,"distinct":true}}`},
		{true, `{` + tuple + `,"edges":[[0,1],[1,2],[0,7]],"k":2}`},
		{true, `{` + tuple + `,"shape":"pentagram","k":5}`},
		{true, `{` + tuple + `,"k":3,"options":{"accuracy":"exact","m":-1}}`},
		{true, `{"graph":"test","sets":[{"ids":[` + longIDs + `]},{"set":"` + sets[1].Name + `"}],"k":3}`},
	} {
		f.Add(seed.joinN, []byte(seed.body))
	}
	// A retired option or measure is a 400 that names its removal, and so
	// is an n-way query over more sets than maxQuerySets, before its shape
	// expands.
	clique := `"graph":"test","shape":"clique","sets":[` + strings.TrimSuffix(strings.Repeat(`{"set":"`+sets[0].Name+`"},`, 4000), ",") + `]`
	for _, seed := range []struct {
		joinN      bool
		body, want string
	}{
		{false, `{` + pair + `,"k":3,"cursor":4,"options":{"algo":"B-BJ","relabel":"degree"}}`, `"relabel": removed`},
		{true, `{` + tuple + `,"k":4,"options":{"relabel":"bfs"}}`, `"relabel": removed`},
		{false, `{` + pair + `,"k":3,"options":{"workers":2,"algo":"B-BJ"}}`, `"workers": removed`},
		{true, `{` + tuple + `,"k":4,"options":{"workers":-1}}`, `"workers": removed`},
		{false, `{` + pair + `,"k":3,"options":{"measure":"simrank"}}`, `"simrank" removed`},
		{true, `{` + clique + `,"k":4}`, "4000 sets named, at most 64"},
		{true, `{` + clique + `,"explain":true,"k":4}`, "4000 sets named, at most 64"},
	} {
		route := map[bool]string{false: "/join2", true: "/joinN"}[seed.joinN]
		expect400(f, h, httptest.NewRequest(http.MethodPost, route, strings.NewReader(seed.body)), seed.want)
		f.Add(seed.joinN, []byte(seed.body))
	}

	f.Fuzz(func(t *testing.T, joinN bool, body []byte) {
		route := "/join2"
		if joinN {
			route = "/joinN"
		}
		fuzzPost(t, h, route, body)
	})
}

// FuzzEdgeBodies: the same contract for POST /graphs/{name}/edges, whose
// numbers are node ids an edit may grow the graph to and weights it sums.
// The graph is reloaded before every input, so each edit applies to the
// 140-node original and generations do not pile up.
func FuzzEdgeBodies(f *testing.F) {
	g, sets := testGraph(f)
	svc := New(Config{})
	h := NewHandler(svc)
	for _, seed := range []string{
		`{"add":[{"u":0,"v":1,"w":2.5},{"u":3,"v":3,"w":1}],"del":[{"u":1,"v":0}]}`,
		`{"add":[{"u":139,"v":140,"w":1},{"u":141,"v":0,"w":1}]}`,
		`{"add":[{"u":0,"v":1,"w":1},{"u":0,"v":1,"w":1}],"del":[{"u":0,"v":1}]}`,
		`{"del":[{"u":5,"v":6},{"u":-1,"v":0},{"u":0,"v":2147483647}]}`,
		`{"add":[{"u":0,"v":1,"w":0}]}`,
		`{"add":[{"u":0,"v":1,"w":-1}]}`,
		`{"add":[{"u":0,"v":1,"w":"NaN"}]}`,
		`{"add":[{"u":0,"v":1,"w":1e309}]}`,
		`{"add":[{"u":0,"v":1,"w":1e308},{"u":0,"v":1,"w":1e308}]}`,
		`{"add":[{"u":-1,"v":1,"w":1}]}`,
		`{"add":[{"u":5000000,"v":1,"w":1}]}`,
		`{"add":[{"u":2147483647,"v":1,"w":1}]}`,
		`{"add":[{"u":2147483648,"v":1,"w":1}]}`,
		`{"add":[{"u":0,"v":1,"w":1,"x":0}]}`,
		`{"add":[],"bogus":1}`,
		`{}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		if err := svc.LoadGraph("test", g, sets); err != nil {
			t.Fatal(err)
		}
		fuzzPost(t, h, "/graphs/test/edges", body)
	})
}

// FuzzScoreQuery: the same contract for the GET routes' option parser
// (queryFromURL), whose numbers arrive as query-string text: whatever the
// query string of GET /score or GET /explain, the answer is a 200, a 400 or
// a 404 — never a 500 or a panic — and a 200 from /score reports a finite
// score for a u and v that parse as int32 ids inside the graph.
// strconv.ParseFloat reads "NaN" and "Inf", so those are seeds, and so are
// ids that a 64-bit parse would wrap onto node 0.
func FuzzScoreQuery(f *testing.F) {
	g, sets := testGraph(f)
	svc := New(Config{MaxBudget: 50 * time.Millisecond})
	if err := svc.LoadGraph("test", g, sets); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(svc)

	p, q, r := sets[0].Name, sets[1].Name, sets[2].Name
	for _, seed := range []struct {
		explain bool
		query   string
	}{
		{false, "graph=test&u=0&v=1"},
		{false, "graph=test&u=0&v=1&epsilon=NaN"},
		{false, "graph=test&u=0&v=1&epsilon=-Inf&lambda=0.3"},
		{false, "graph=test&u=3&v=3&measure=ppr&lambda=NaN"},
		{false, "graph=test&u=0&v=139&d=4096&dhte=1"},
		{false, "graph=test&u=0&v=140&d=-1&m=0"},
		{false, "graph=nope&u=0&v=1&ppr=true"},
		{false, "graph=test&u=x&v=%zz"},
		{true, "graph=test&p=" + p + "&q=" + q + "&k=5&epsilon=NaN"},
		{true, "graph=test&sets=" + p + "," + q + "," + r + "&shape=triangle&k=3&agg=SUM&m=7"},
		{true, "graph=test&sets=" + p + "&shape=star&k=-1&algo=B-BJ"},
		{true, "graph=test&p=" + p + "&q=missing&k=9223372036854775807&accuracy=fast"},
		{false, "graph=test&u=4294967296&v=1"},
		{false, "graph=test&u=1&v=-4294967296"},
	} {
		f.Add(seed.explain, seed.query)
	}
	// A retired option or measure is a 400 that names its removal, and so
	// is an n-way query over more sets than maxQuerySets, before its shape
	// expands.
	for _, seed := range []struct {
		explain     bool
		query, want string
	}{
		{true, "graph=test&sets=" + p + "&shape=star&k=-1&algo=B-BJ&relabel=degree", "relabel: removed"},
		{false, "graph=test&u=0&v=1&relabel=off", "relabel: removed"},
		{true, "graph=test&p=" + p + "&q=" + q + "&workers=2", "workers: removed"},
		{false, "graph=test&u=0&v=1&workers=-1", "workers: removed"},
		{true, "graph=test&shape=clique&sets=" + strings.TrimSuffix(strings.Repeat(p+",", 4000), ","), "4000 sets named, at most 64"},
	} {
		route := map[bool]string{false: "/score", true: "/explain"}[seed.explain]
		expect400(f, h, httptest.NewRequest(http.MethodGet, route+"?"+seed.query, nil), seed.want)
		f.Add(seed.explain, seed.query)
	}

	f.Fuzz(func(t *testing.T, explain bool, query string) {
		route := "/score"
		if explain {
			route = "/explain"
		}
		req := httptest.NewRequest(http.MethodGet, route, nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var out struct {
				Score *float64       `json:"score"`
				Plan  map[string]any `json:"plan"`
			}
			if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
				t.Fatalf("GET %s?%s: 200 with a body that is not JSON: %v", route, query, err)
			}
			if explain {
				break
			}
			if out.Score == nil || math.IsNaN(*out.Score) || math.IsInf(*out.Score, 0) {
				t.Fatalf("GET %s?%s: 200 without a finite score (%v)", route, query, out.Score)
			}
			qp := req.URL.Query()
			for _, id := range []string{qp.Get("u"), qp.Get("v")} {
				if n, err := strconv.ParseInt(id, 10, 32); err != nil || n < 0 || n >= int64(g.NumNodes()) {
					t.Fatalf("GET %s?%s: 200 for node id %q outside the graph", route, query, id)
				}
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("GET %s?%s: status %d: %s", route, query, rec.Code, rec.Body)
		}
	})
}

// expect400 serves req and fails tb unless the answer is a 400 whose error
// message carries want.
func expect400(tb testing.TB, h http.Handler, req *http.Request, want string) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out struct {
		Error struct{ Message string } `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || rec.Code != http.StatusBadRequest || !strings.Contains(out.Error.Message, want) {
		tb.Fatalf("%s %s: status %d, message %q; want 400 carrying %q", req.Method, req.URL, rec.Code, out.Error.Message, want)
	}
}

// fuzzPost posts body to route and fails t unless the answer is a 2xx whose
// body is JSON (NDJSON lines without an in-band error) or a 4xx with the
// typed error envelope, and the request allocated at most fuzzAllocCap.
func fuzzPost(t *testing.T, h http.Handler, route string, body []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > fuzzAllocCap {
		t.Fatalf("POST %s %q allocated %d MiB", route, body, grew>>20)
	}

	type envelope struct {
		Error *struct {
			Status  int    `json:"status"`
			Message string `json:"message"`
		} `json:"error"`
	}
	switch code := rec.Code; {
	case code >= 200 && code < 300:
		// One JSON document, or NDJSON lines none of which is the in-band
		// error a stream writes when it fails after its 200.
		dec := json.NewDecoder(rec.Body)
		for dec.More() {
			var line envelope
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("POST %s %q: %d with a body that is not JSON: %v", route, body, code, err)
			}
			if line.Error != nil {
				t.Fatalf("POST %s %q: stream failed mid-flight: %+v", route, body, *line.Error)
			}
		}
	case code >= 400 && code < 500:
		var env envelope
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil || env.Error == nil ||
			env.Error.Status != code || env.Error.Message == "" {
			t.Fatalf("POST %s %q: %d without the typed error envelope (%v, %+v)", route, body, code, err, env.Error)
		}
	default:
		t.Fatalf("POST %s %q: status %d: %s", route, body, code, rec.Body)
	}
}
