package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// serverFor wires a service with a caller-chosen Config into an httptest
// server with the standard test graph loaded directly (no HTTP PUT).
func serverFor(t *testing.T, cfg Config) (*httptest.Server, *Service, *graph.Graph, []*graph.NodeSet) {
	t.Helper()
	g, sets := testGraph(t)
	svc := New(cfg)
	if err := svc.LoadGraph("test", g, sets); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc, g, sets
}

// TestHTTPDrain: after StartDrain, new queries get 503 with Retry-After and
// /readyz flips, while the stream opened before the drain runs to its done
// terminator — draining gates the door, it does not cut connections.
func TestHTTPDrain(t *testing.T) {
	srv, svc, _, sets := serverFor(t, Config{})

	body, _ := json.Marshal(map[string]any{
		"graph":  "test",
		"p":      map[string]any{"set": sets[0].Name},
		"q":      map[string]any{"set": sets[1].Name},
		"k":      0, // to exhaustion: the stream is still open when we drain
		"stream": true,
	})
	resp, err := http.Post(srv.URL+"/join2", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream open = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for i := 0; i < 3; i++ {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if line["done"] == true {
			t.Fatalf("stream exhausted after %d lines; graph too small for this test", i)
		}
	}

	svc.StartDrain()

	// New queries are rejected with 503 + Retry-After.
	post, err := http.Post(srv.URL+"/join2", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join during drain = %d, want 503 (%s)", post.StatusCode, raw)
	}
	if post.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain lacks Retry-After")
	}
	if !strings.Contains(string(raw), "draining") {
		t.Fatalf("drain rejection body %q does not say why", raw)
	}

	// Load balancers see not-ready; liveness and operator stats still answer.
	var ready map[string]any
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready["draining"] != true {
		t.Fatalf("/readyz during drain = %d %v", code, ready)
	}
	var health map[string]any
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d", code)
	}
	var stats Stats
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK || !stats.Draining {
		t.Fatalf("/stats during drain = %d, draining=%v", code, stats.Draining)
	}

	// The in-flight stream finishes normally under drain.
	sawDone := false
	for !sawDone {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("draining stream died early: %v", err)
		}
		sawDone = line["done"] == true
	}
	if n := poolOutstanding(svc); n != 0 {
		t.Fatalf("%d engines outstanding after drained stream", n)
	}
}

// smallBufListener pins an explicit (small) kernel send buffer on accepted
// connections; explicit SO_SNDBUF disables auto-tuning, so a non-reading
// client makes the server's writes block instead of vanishing into a
// megabyte of kernel buffer.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetWriteBuffer(8 << 10)
		}
	}
	return c, err
}

// TestHTTPStreamWriteDeadline: a client that opens a k=0 stream over the full
// node set and then never reads must not pin engines forever — the per-line
// write deadline cuts the connection and the handler unwinds.
func TestHTTPStreamWriteDeadline(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{StreamWriteTimeout: 300 * time.Millisecond})
	if err := svc.LoadGraph("test", g, sets); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(NewHandler(svc))
	srv.Listener = smallBufListener{srv.Listener}
	srv.Start()
	t.Cleanup(srv.Close)

	// All nodes on both sides: ~n² result lines, far beyond what the socket
	// buffers can absorb for a reader that never drains them.
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	body, _ := json.Marshal(map[string]any{
		"graph":  "test",
		"p":      map[string]any{"ids": all},
		"q":      map[string]any{"ids": all},
		"k":      0,
		"stream": true,
	})
	// A tiny client receive buffer keeps the kernel from absorbing the whole
	// response on the client's behalf: once it and the server's send buffer
	// fill, the per-line write blocks and the deadline fires.
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			if tc, ok := c.(*net.TCPConn); ok {
				if err := tc.SetReadBuffer(4096); err != nil {
					return nil, err
				}
			}
			return c, nil
		},
	}}
	resp, err := client.Post(srv.URL+"/join2", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream open = %d", resp.StatusCode)
	}

	// Read nothing. The server must give up on its own.
	waitFor(t, func() bool { return poolOutstanding(svc) == 0 })
	free, waiting, _ := svc.adm.snapshot()
	if waiting != 0 || free != svc.adm.total {
		t.Fatalf("admission after write-deadline cut: free=%d/%d waiting=%d", free, svc.adm.total, waiting)
	}

	// Whatever made it into the buffers must be a clean prefix with no done
	// terminator: the stream was cut, not completed.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			break // trailing partial line at the cut point
		}
		if line["done"] == true {
			t.Fatal("cut stream carries a done terminator")
		}
		lines++
	}
	t.Logf("write-deadline cut after %d buffered lines", lines)
}

// TestHTTPPutDeleteRace: concurrent PUT and DELETE of the same graph name
// must never 500 — the load response is computed from the parsed graph, not
// re-fetched from the registry it may already have been deleted from.
func TestHTTPPutDeleteRace(t *testing.T) {
	srv, _, g, sets := serverFor(t, Config{})
	var text bytes.Buffer
	if err := graph.WriteText(&text, g, sets...); err != nil {
		t.Fatal(err)
	}
	payload := text.Bytes()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			req, _ := http.NewRequest(http.MethodPut, srv.URL+"/graphs/raced", bytes.NewReader(payload))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("PUT %d: %v", i, err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("PUT %d = %d: %s", i, resp.StatusCode, raw)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/graphs/raced", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("DELETE %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("DELETE %d = %d", i, resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// TestBudgetTruncation: a deadline budget that expires mid-join yields a
// correct-but-short ranking prefix alongside ErrBudgetExceeded, not a bare
// error and not garbage.
func TestBudgetTruncation(t *testing.T) {
	g, sets := testGraph(t)
	// A join this size makes only a handful of walk-round polls, so the
	// injected latency must dominate the budget per poll, not per result.
	inj := fault.New(1)
	inj.Add(fault.WalkRound, fault.Rule{Every: 1, Delay: 30 * time.Millisecond})
	svc := New(Config{Fault: inj})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}

	res, err := svc.Join2(context.Background(), "g", p, q, 500, Query{Budget: 50 * time.Millisecond})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("50ms budget against 30ms/round latency = %v, want ErrBudgetExceeded (%d results)", err, len(res))
	}
	if len(res) >= 500 {
		t.Fatalf("truncated join returned all %d results", len(res))
	}
	if len(res) > 0 {
		want := refJoin2(t, g, sets[0].Nodes(), sets[1].Nodes(), len(res))
		for i := range res {
			if res[i] != want[i] {
				t.Fatalf("truncated prefix rank %d: %+v, want %+v", i, res[i], want[i])
			}
		}
	}
	if svc.Stats().BudgetTruncations == 0 {
		t.Fatal("BudgetTruncations counter never moved")
	}

	// Stream handles surface it through Next's error and Truncated().
	st, err := svc.OpenJoin2(context.Background(), "g", p, q, Query{Budget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	for {
		_, ok, err := st.Next()
		if err != nil {
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("budgeted stream died with %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("budgeted stream exhausted the whole ranking despite latency faults")
		}
	}
	if !st.Truncated() {
		t.Fatal("stream does not report Truncated after budget expiry")
	}
	if n := poolOutstanding(svc); n != 0 {
		t.Fatalf("%d engines outstanding after budget truncations", n)
	}
}

// TestHTTPBudgetTruncation: the wire surfaces budget truncation as a 200
// with "truncated":true (batch) and a truncated terminator (stream) — slow
// joins under a budget degrade, they do not fail.
func TestHTTPBudgetTruncation(t *testing.T) {
	g, sets := testGraph(t)
	inj := fault.New(3)
	inj.Add(fault.WalkRound, fault.Rule{Every: 1, Delay: 30 * time.Millisecond})
	svc := New(Config{Fault: inj})
	if err := svc.LoadGraph("test", g, sets); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	mkBody := func(stream bool) map[string]any {
		return map[string]any{
			"graph":   "test",
			"p":       map[string]any{"set": sets[0].Name},
			"q":       map[string]any{"set": sets[1].Name},
			"k":       500,
			"stream":  stream,
			"options": map[string]any{"budget_ms": 50},
		}
	}

	var batch struct {
		Results   []pairJSON `json:"results"`
		Truncated bool       `json:"truncated"`
		Exhausted bool       `json:"exhausted"`
	}
	if code := postJSON(t, srv.URL+"/join2", mkBody(false), &batch); code != http.StatusOK {
		t.Fatalf("budgeted batch = %d", code)
	}
	if !batch.Truncated || batch.Exhausted {
		t.Fatalf("budgeted batch meta: truncated=%v exhausted=%v", batch.Truncated, batch.Exhausted)
	}
	if len(batch.Results) >= 500 {
		t.Fatalf("budgeted batch returned all %d results", len(batch.Results))
	}

	lines, _ := ndjsonLines(t, srv.URL+"/join2", mkBody(true))
	last := lines[len(lines)-1]
	if last["done"] != true || last["truncated"] != true {
		t.Fatalf("budgeted stream terminator = %v", last)
	}
	if cnt := last["count"].(float64); int(cnt) != len(lines)-1 || int(cnt) >= 500 {
		t.Fatalf("budgeted stream count=%v lines=%d", cnt, len(lines))
	}
	if n := poolOutstanding(svc); n != 0 {
		t.Fatalf("%d engines outstanding", n)
	}
}

// TestHTTPBudgetSpentAtOpen: a budget gone before the join can start (here
// a 1ns server cap; in production, a request that spent it queued at
// admission) is the shortest truncation on every surface — the NDJSON
// stream is a 200 whose only line is the truncated terminator, agreeing
// with the batch form's empty truncated page, not an error envelope.
func TestHTTPBudgetSpentAtOpen(t *testing.T) {
	srv, svc, _, sets := serverFor(t, Config{MaxBudget: time.Nanosecond})
	body := func(stream bool) map[string]any {
		return map[string]any{
			"graph":  "test",
			"p":      map[string]any{"set": sets[0].Name},
			"q":      map[string]any{"set": sets[1].Name},
			"k":      5,
			"stream": stream,
		}
	}
	lines, _ := ndjsonLines(t, srv.URL+"/join2", body(true))
	if len(lines) != 1 {
		t.Fatalf("stream past its budget wrote %d lines, want only the terminator: %v", len(lines), lines)
	}
	if last := lines[0]; last["done"] != true || last["truncated"] != true || last["exhausted"] != false || last["count"] != float64(0) {
		t.Fatalf("terminator = %v, want done, truncated, not exhausted, count 0", last)
	}

	var batch struct {
		Results   []pairJSON `json:"results"`
		Truncated bool       `json:"truncated"`
		Exhausted bool       `json:"exhausted"`
	}
	if code := postJSON(t, srv.URL+"/join2", body(false), &batch); code != http.StatusOK {
		t.Fatalf("batch past its budget = %d", code)
	}
	if !batch.Truncated || batch.Exhausted || len(batch.Results) != 0 {
		t.Fatalf("batch past its budget: %d results truncated=%v exhausted=%v", len(batch.Results), batch.Truncated, batch.Exhausted)
	}
	// Brute-force NL polls the budget per tuple like every other executor,
	// instead of enumerating its 100k candidates first.
	var nl struct {
		Answers   []answerJSON `json:"answers"`
		Truncated bool         `json:"truncated"`
	}
	if code := postJSON(t, srv.URL+"/joinN", map[string]any{
		"graph":   "test",
		"sets":    []map[string]any{{"set": sets[0].Name}, {"set": sets[1].Name}, {"set": sets[2].Name}},
		"k":       5,
		"options": map[string]any{"algo": "NL"},
	}, &nl); code != http.StatusOK || !nl.Truncated || len(nl.Answers) != 0 {
		t.Fatalf("forced NL past its budget = %d, %d answers, truncated=%v", code, len(nl.Answers), nl.Truncated)
	}
	if got := svc.Stats().BudgetTruncations; got != 3 {
		t.Fatalf("BudgetTruncations = %d, want one per request", got)
	}
	if engines, tokens := svc.Outstanding(); engines != 0 || tokens != 0 {
		t.Fatalf("%d engines and %d tokens outstanding", engines, tokens)
	}
}

// TestHTTPPriorityAndQueueFull: X-Priority selects the admission class, a
// request that finds the admission queue full gets 429 with Retry-After, and
// the retired "tenant" option is a 400 that says so.
func TestHTTPPriorityAndQueueFull(t *testing.T) {
	srv, svc, _, sets := serverFor(t, Config{MaxConcurrency: 1})
	svc.adm = newAdmission(1, 1) // before any request: a one-waiter queue

	streamBody, _ := json.Marshal(map[string]any{
		"graph":  "test",
		"p":      map[string]any{"set": sets[0].Name},
		"q":      map[string]any{"set": sets[1].Name},
		"k":      0,
		"stream": true,
	})
	open := func(priority string) *http.Response {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/join2", bytes.NewReader(streamBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if priority != "" {
			req.Header.Set("X-Priority", priority)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The holder keeps the only token through a direct stream handle (an
	// HTTP holder would finish into the socket buffers and release too
	// early); a batch request then fills the one-waiter queue.
	holder, err := svc.OpenJoin2(context.Background(), "test",
		SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}, Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Stop()
	if _, ok, err := holder.Next(); !ok || err != nil {
		t.Fatalf("holder first pull: ok=%v err=%v", ok, err)
	}
	queuedDone := make(chan *http.Response, 1)
	go func() { queuedDone <- open("Batch") }()
	waitFor(t, func() bool {
		svc.adm.mu.Lock()
		defer svc.adm.mu.Unlock()
		return len(svc.adm.queues[classBatch]) == 1
	})

	// The next request finds the queue full: 429 + Retry-After.
	rejected := open("")
	raw, _ := io.ReadAll(rejected.Body)
	rejected.Body.Close()
	if rejected.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past a full queue = %d: %s", rejected.StatusCode, raw)
	}
	if rejected.Header.Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After")
	}
	if got := svc.Stats().QuotaRejections; got != 1 {
		t.Fatalf("QuotaRejections = %d, want 1", got)
	}

	// Release the holder; the queued request then gets the token and finishes.
	holder.Stop()
	select {
	case resp := <-queuedDone:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("queued request = %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	case <-time.After(30 * time.Second):
		t.Fatal("queued request never completed")
	}
	waitFor(t, func() bool { return poolOutstanding(svc) == 0 })

	// Bad priority header is a client error, not a silent default.
	resp := open("urgent")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus X-Priority = %d, want 400", resp.StatusCode)
	}

	// The retired tenant option is a 400 naming the removal, in the body and
	// on the GET routes alike.
	var body map[string]any
	json.Unmarshal(streamBody, &body)
	body["options"] = map[string]any{"tenant": "team-a"}
	tenantBody, _ := json.Marshal(body)
	resp, err = http.Post(srv.URL+"/join2", "application/json", bytes.NewReader(tenantBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "tenant") || !strings.Contains(string(raw), "removed") {
		t.Fatalf("body tenant option = %d: %s", resp.StatusCode, raw)
	}
	resp, err = http.Get(srv.URL + "/score?graph=test&u=0&v=1&tenant=team-a")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "tenant") {
		t.Fatalf("GET tenant parameter = %d: %s", resp.StatusCode, raw)
	}
}

// TestQueryOfPriority: a priority named in the body wins over the
// X-Priority header, the header applies only when the body left priority
// empty, and both sides are case-insensitive.
func TestQueryOfPriority(t *testing.T) {
	for _, tc := range []struct {
		body, header string
		want         int
		wantErr      bool
	}{
		{"", "", PriorityInteractive, false},
		{"", "batch", PriorityBatch, false},
		{"", "Batch", PriorityBatch, false},
		{"interactive", "batch", PriorityInteractive, false},
		{"Interactive", "BATCH", PriorityInteractive, false},
		{"Batch", "", PriorityBatch, false},
		{"batch", "interactive", PriorityBatch, false},
		{"urgent", "", 0, true},
		{"", "urgent", 0, true},
	} {
		r := httptest.NewRequest(http.MethodPost, "/join2", nil)
		if tc.header != "" {
			r.Header.Set("X-Priority", tc.header)
		}
		q, err := queryOf(r, &OptionsJSON{Priority: tc.body})
		if (err != nil) != tc.wantErr || (err == nil && q.Priority != tc.want) {
			t.Errorf("body %q, header %q: priority %d, err %v; want %d, error %v",
				tc.body, tc.header, q.Priority, err, tc.want, tc.wantErr)
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/join2", nil)
	r.Header.Set("X-Priority", "batch")
	if q, err := queryOf(r, nil); err != nil || q.Priority != PriorityBatch {
		t.Errorf("no options, header batch: priority %d, err %v", q.Priority, err)
	}
}
