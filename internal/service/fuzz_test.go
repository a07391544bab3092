package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
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
		{false, `{` + pair + `,"k":3,"cursor":4,"options":{"workers":2,"algo":"B-BJ","relabel":"degree"}}`},
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
