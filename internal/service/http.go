package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/measure"
	"repro/internal/plan"
)

// maxGraphBody bounds an uploaded graph file (text format) at 256 MiB — far
// above the evaluation datasets, low enough that a stray upload cannot OOM
// the server.
const maxGraphBody = 256 << 20

// NewHandler returns the njoind HTTP API over svc:
//
//	PUT    /graphs/{name}   load a text-format graph (body = graph file)
//	GET    /graphs          list loaded graphs
//	DELETE /graphs/{name}   drop a graph (and its durable state, if any)
//	POST   /graphs/{name}/edges  apply an atomic edge-update batch ({"add":[{"u":..,"v":..,"w":..}],"del":[{"u":..,"v":..}]})
//	POST   /join2           top-k 2-way join (planner-picked; force with options.algo)
//	POST   /joinN           top-k n-way join (planner-picked; force with options.algo)
//	GET    /measures        served proximity measures (name, contract, family)
//	GET    /score           single pair score (?graph=&u=&v=[&lambda=&d=&measure=...])
//	GET    /explain         dry-run plan over named sets (?graph=&p=&q= or ?graph=&sets=&shape=)
//	GET    /stats           service counters (incl. planner picks)
//
// The join endpoints are streaming-capable: "stream": true switches the
// response to NDJSON (one rank-ordered result per line, flushed as
// produced, terminated by a {"done":true,...} line), and "cursor": n skips
// the first n results — the "next page" continuation, usable with or
// without streaming. "explain": true turns either join request into a dry
// run: the response is {"plan": ...} — the cost-based planner's decision
// for the demand the same body would run (cursor+k for a page, the initial
// batch for a stream), per-candidate estimates, and stats snapshot — and
// nothing executes.
// Handlers run under the request context, so a disconnected client aborts
// the join and returns its engines to the session pool.
//
// Responses are JSON; errors are {"error": {"status": ..., "message": ...}}
// with a 4xx/5xx status (streaming responses report mid-flight failures as
// an in-band {"error": ...} line instead).
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("PUT /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		body := http.MaxBytesReader(w, r.Body, maxGraphBody)
		// The info comes straight from the load itself — not from a registry
		// re-read — so a concurrent DELETE of the same name can no longer
		// turn a successful PUT into a 500 "graph vanished after load".
		info, err := svc.LoadGraphText(name, body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text exposition of the same counters /stats serves as
		// JSON (cluster scatter counters included, when a router is wired).
		w.Header().Set("Content-Type", metricsContentType)
		WriteMetrics(w, svc.Stats())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: the process is up and serving, draining or not.
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: load balancers pull a draining instance out of rotation
		// while its in-flight streams finish.
		if svc.Draining() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "draining": true})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	})

	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"graphs": svc.Graphs()})
	})

	mux.HandleFunc("GET /measures", func(w http.ResponseWriter, r *http.Request) {
		// The served measures: every kernel a join request can name in
		// options.measure, with its accuracy contract and family.
		writeJSON(w, http.StatusOK, map[string]any{"measures": measure.Describe()})
	})

	mux.HandleFunc("DELETE /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		ok, err := svc.DropGraph(name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no graph %q loaded", name))
			return
		}
		if err != nil {
			// The graph is no longer served, but some on-disk state survived;
			// the client should retry the delete to finish the removal.
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("graph %q dropped from serving but durable removal incomplete (retry the delete): %w", name, err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
	})

	mux.HandleFunc("POST /graphs/{name}/edges", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var req edgeUpdateRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		adds := make([]graph.Edge, len(req.Add))
		for i, e := range req.Add {
			adds[i] = graph.Edge{U: e.U, V: e.V, W: e.W}
		}
		dels := make([][2]graph.NodeID, len(req.Del))
		for i, d := range req.Del {
			dels[i] = [2]graph.NodeID{d.U, d.V}
		}
		info, err := svc.UpdateEdges(name, adds, dels)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("POST /join2", func(w http.ResponseWriter, r *http.Request) {
		var req join2Request
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		serveJoin(svc, w, r, "join2", "results", &req.joinCommon, pairSpec{req.P.toRef(), req.Q.toRef()},
			func(pr join2.Result) pairJSON { return pairJSON{P: pr.Pair.P, Q: pr.Pair.Q, Score: pr.Score} })
	})

	mux.HandleFunc("POST /joinN", func(w http.ResponseWriter, r *http.Request) {
		var req joinNRequest
		if err := decodeJSON(r, &req); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if err := checkQuerySets(len(req.Sets)); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		spec := tupleSpec{sets: make([]SetRef, len(req.Sets)), edges: req.Edges}
		for i, s := range req.Sets {
			spec.sets[i] = s.toRef()
		}
		if len(spec.edges) == 0 {
			var err error
			if spec.edges, err = shapeEdges(req.Shape, len(spec.sets)); err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		}
		serveJoin(svc, w, r, "joinN", "answers", &req.joinCommon, spec,
			func(a core.Answer) answerJSON { return answerJSON{Nodes: a.Nodes, Score: a.Score} })
	})

	mux.HandleFunc("GET /score", func(w http.ResponseWriter, r *http.Request) {
		qp := r.URL.Query()
		// Node ids are int32; parsing at that width rejects an id that a
		// wider parse would wrap onto a valid node.
		u, errU := strconv.ParseInt(qp.Get("u"), 10, 32)
		v, errV := strconv.ParseInt(qp.Get("v"), 10, 32)
		if errU != nil || errV != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("score: u and v must be int32 node ids"))
			return
		}
		query, err := queryFromURL(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		score, err := svc.Score(r.Context(), qp.Get("graph"), graph.NodeID(u), graph.NodeID(v), query)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"score": score})
	})

	// GET /explain is the dry-run convenience route over named sets:
	// ?graph=g&p=U&q=D plans a 2-way join, ?graph=g&sets=U,F,D&shape=chain
	// an n-way one. Knobs: k, m, algo, lambda, dhte, d, epsilon, measure.
	// Explicit node-id lists need POST with "explain":true.
	mux.HandleFunc("GET /explain", func(w http.ResponseWriter, r *http.Request) {
		qp := r.URL.Query()
		query, err := queryFromURL(r)
		k := 0
		if s := qp.Get("k"); err == nil && s != "" {
			if k, err = strconv.Atoi(s); err != nil {
				err = fmt.Errorf("explain: bad k %q", s)
			}
		}
		var pl *plan.Plan
		switch sets := qp.Get("sets"); {
		case err != nil:
		case sets != "":
			names := strings.Split(sets, ",")
			if err = checkQuerySets(len(names)); err != nil {
				break
			}
			var spec tupleSpec
			for _, n := range names {
				spec.sets = append(spec.sets, SetRef{Name: strings.TrimSpace(n)})
			}
			if spec.edges, err = shapeEdges(qp.Get("shape"), len(spec.sets)); err == nil {
				pl, err = explainJoin(svc, qp.Get("graph"), spec, k, query)
			}
		default:
			pl, err = explainJoin(svc, qp.Get("graph"), pairSpec{SetRef{Name: qp.Get("p")}, SetRef{Name: qp.Get("q")}}, k, query)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"plan": pl})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})

	return withRecover(svc, withDrain(svc, mux))
}

// serveJoin is the one body of the join routes: options → explain | NDJSON
// stream | paged batch. route prefixes error messages, field names the
// batch response's result array, and wire renders one result.
func serveJoin[T, W any](svc *Service, w http.ResponseWriter, r *http.Request, route, field string, req *joinCommon, spec joinSpec[T], wire func(T) W) {
	ctx := r.Context() // a disconnected client cancels it, aborting the join
	query, err := queryOf(r, req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// k = 0 means "until exhausted" when streaming; the batch form needs a
	// positive page size (a k <= 0 page could never terminate a client's
	// cursor loop).
	switch {
	case req.Cursor < 0:
		err = fmt.Errorf("%s: cursor must be >= 0, got %d", route, req.Cursor)
	case req.Stream && req.K < 0:
		err = fmt.Errorf("%s: k must be >= 0 when streaming, got %d", route, req.K)
	case !req.Stream && req.K <= 0:
		err = fmt.Errorf("%s: k must be positive, got %d", route, req.K)
	case !req.Stream && req.Cursor > math.MaxInt-req.K:
		err = fmt.Errorf("%s: cursor %d plus k %d overflows an int", route, req.Cursor, req.K)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Explain {
		// Price the demand this body would run: a batch page drains
		// cursor+k, a stream opens with demand 0 (its initial batch).
		demand := req.Cursor + req.K
		if req.Stream {
			demand = 0
		}
		pl, err := explainJoin(svc, req.Graph, spec, demand, query)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"plan": pl})
		return
	}
	if req.Stream {
		st, err := openJoin(svc, ctx, req.Graph, spec, query)
		if err != nil {
			writeSvcError(w, err)
			return
		}
		defer st.Stop()
		streamNDJSON(svc, w, req.Cursor, req.K, func() (any, bool, error) {
			v, ok, err := st.Next()
			if err != nil || !ok {
				return nil, ok, err
			}
			return wire(v), true, nil
		}, st.Truncated)
		return
	}
	// Batch (optionally paged): drain cursor+k, return the page past the
	// cursor. The prefix cache makes page n+1 re-serve page n's work.
	res, err := joinBatch(svc, ctx, req.Graph, spec, req.Cursor+req.K, query)
	truncated := errors.Is(err, ErrBudgetExceeded)
	if err != nil && !truncated {
		writeSvcError(w, err)
		return
	}
	exhausted := len(res) < req.Cursor+req.K && !truncated
	res = res[min(req.Cursor, len(res)):]
	page := make([]W, len(res))
	for i, v := range res {
		page[i] = wire(v)
	}
	// Paging bookkeeping rides on every response — page one of a cursor
	// loop needs "exhausted" as much as page two does.
	body := map[string]any{
		field:         page,
		"cursor":      req.Cursor,
		"next_cursor": req.Cursor + len(page),
		"exhausted":   exhausted,
	}
	if truncated {
		body["truncated"] = true
	}
	writeJSON(w, http.StatusOK, body)
}

// withDrain rejects new work with 503 + Retry-After once the service is
// draining, while health and stats endpoints keep answering (load balancers
// and operators need them most exactly then). Requests already inside a
// handler are unaffected — drain only gates the door.
func withDrain(svc *Service, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if svc.Draining() {
			switch r.URL.Path {
			case "/healthz", "/readyz", "/stats":
			default:
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, ErrDraining)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// withRecover converts a handler panic into a 500 error envelope when the
// response has not started, and into a dropped connection when it has
// (matching net/http's own abort semantics). Either way the panic stops at
// the request boundary: one poisoned request cannot take the daemon down.
func withRecover(svc *Service, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rw := &headerTracker{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p) // deliberate abort; let net/http handle it
			}
			svc.notePanic()
			if !rw.wrote {
				writeError(rw, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
			}
		}()
		h.ServeHTTP(rw, r)
	})
}

// headerTracker records whether the response has started, so the recover
// middleware knows whether a 500 envelope can still be written.
type headerTracker struct {
	http.ResponseWriter
	wrote bool
}

func (t *headerTracker) WriteHeader(code int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *headerTracker) Write(b []byte) (int, error) {
	t.wrote = true
	return t.ResponseWriter.Write(b)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// flush and deadline hooks through the tracker.
func (t *headerTracker) Unwrap() http.ResponseWriter { return t.ResponseWriter }

// streamNDJSON drives a pull stream onto the wire as NDJSON: one result
// object per line, flushed as produced, so the client sees the first result
// while the join is still deepening. cursor results are skipped first (the
// "next page" continuation), then up to k results are written (k = 0
// streams to exhaustion). The final line is a terminator object —
// {"done":true,"count":…,"next_cursor":…,"exhausted":…,"truncated":…} on
// success (truncated marks a deadline-budget cut: the lines above it are a
// correct ranking prefix), or {"error":…} if the stream failed mid-flight
// (the HTTP status is already on the wire by then; the in-band error line is
// the only channel left).
//
// Each line write runs under the service's StreamWriteTimeout: a streaming
// request holds an admission token and pooled engines for its whole lifetime,
// so without the per-line deadline a handful of clients that open a stream
// and stop reading would wedge the admission controller. A client that keeps
// reading, however slowly per line, refreshes the deadline on every write.
func streamNDJSON(svc *Service, w http.ResponseWriter, cursor, k int, next func() (any, bool, error), truncated func() bool) {
	rc := http.NewResponseController(w)
	// The per-line deadlines below are absolute; clear them on the way out
	// or the last one would outlive this response and kill the next request
	// served on the same keep-alive connection.
	defer rc.SetWriteDeadline(time.Time{}) //nolint:errcheck // best effort
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() { _ = rc.Flush() }
	writeTimeout := svc.WriteTimeout()
	done := func(written int, exhausted bool) {
		line := map[string]any{
			"done":        true,
			"count":       written,
			"next_cursor": cursor + written,
			"exhausted":   exhausted,
		}
		if truncated != nil && truncated() {
			line["truncated"] = true
		}
		_ = enc.Encode(line)
		flush()
	}
	written, skip, exhausted := 0, cursor, false
	for k == 0 || written < k {
		v, ok, err := next()
		if err != nil {
			if errors.Is(err, ErrBudgetExceeded) {
				// The budget cut the ranking short; everything on the wire is
				// a correct prefix, so terminate normally with the marker
				// instead of failing a request that produced valid results.
				done(written, false)
				return
			}
			// The in-band line carries the same envelope shape as a
			// non-streaming error; 500 because the request was accepted.
			body := errorBody(err)
			body["status"] = http.StatusInternalServerError
			_ = enc.Encode(map[string]any{"error": body})
			flush()
			return
		}
		if !ok {
			exhausted = true
			break
		}
		if skip > 0 {
			skip--
			continue
		}
		// Refresh the per-line write deadline (best effort: httptest's
		// recorder does not support deadlines, and a real server that
		// cannot set one just keeps the old behavior).
		if writeTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
		if err := svc.cfg.Fault.Inject(fault.ResponseWrite); err != nil {
			return // injected write failure: same path as a vanished client
		}
		if err := enc.Encode(v); err != nil {
			return // client went away or stalled; the deferred Stop cleans up
		}
		written++
		flush()
	}
	done(written, exhausted)
}
