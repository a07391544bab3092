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

	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/rankjoin"
)

// OptionsJSON is the wire form of a Query. All fields are optional; zero
// values select the paper's defaults (measure.Resolve applies them).
type OptionsJSON struct {
	Lambda   float64 `json:"lambda,omitempty"`  // the measure's decay: DHTλ's λ (default 0.2), ppr's damping factor (default 0.5)
	DHTE     bool    `json:"dhte,omitempty"`    // use the DHTe parameterization
	Epsilon  float64 `json:"epsilon,omitempty"` // truncation accuracy target (default 1e-6)
	D        int     `json:"d,omitempty"`       // forced truncation depth (overrides epsilon)
	Agg      string  `json:"agg,omitempty"`     // SUM | MIN | MAX | AVG (n-way; default MIN)
	M        int     `json:"m,omitempty"`       // per-edge budget (n-way; default 50)
	Distinct bool    `json:"distinct,omitempty"`
	Measure  string  `json:"measure,omitempty"`   // served measure name: "dht" (default) | "reach" | "ppr" (GET /measures lists them)
	Algo     string  `json:"algo,omitempty"`      // force an executor (B-IDJ-Y, B-IDJ-X, B-BJ, PJ-i, AP); empty = cost-based planner
	Priority string  `json:"priority,omitempty"`  // "interactive" (default) | "batch" (X-Priority header is the fallback)
	BudgetMS int     `json:"budget_ms,omitempty"` // wall-clock deadline budget in milliseconds; 0 = server default
}

// toQuery resolves the wire options into a Query.
func (o *OptionsJSON) toQuery() (Query, error) {
	var q Query
	if o == nil {
		return q, nil
	}
	// lambda means whatever the named measure's kernel says it means
	// (DHTλ's decay, ppr's damping factor); an unknown name fails here with
	// ErrUnknownMeasure, listing the served spellings.
	params, err := measure.ParamsFor(o.Measure, o.Lambda, o.DHTE)
	if err != nil {
		return q, err
	}
	q.Params = params
	q.MeasureName = o.Measure
	if o.Agg != "" {
		agg, err := rankjoin.ByName(o.Agg)
		if err != nil {
			return q, err
		}
		q.Agg = agg
	}
	q.Epsilon = o.Epsilon
	q.D = o.D
	q.M = o.M
	q.Distinct = o.Distinct
	q.Algorithm = o.Algo
	if q.Priority, err = parsePriority(o.Priority); err != nil {
		return q, fmt.Errorf("options: %w", err)
	}
	if o.BudgetMS < 0 {
		return q, fmt.Errorf("options: budget_ms must be >= 0, got %d", o.BudgetMS)
	}
	if int64(o.BudgetMS) > maxBudgetMS {
		return q, fmt.Errorf("options: budget_ms must be at most %d, got %d", maxBudgetMS, o.BudgetMS)
	}
	q.Budget = time.Duration(o.BudgetMS) * time.Millisecond
	return q, nil
}

// maxBudgetMS is the largest budget_ms a time.Duration holds; a larger one
// would wrap to a tiny or negative budget.
const maxBudgetMS = math.MaxInt64 / int64(time.Millisecond)

// queryOf resolves a request's wire options (nil means defaults) into a
// Query, taking the priority from the X-Priority header when the options
// left it empty. A priority named in the body wins over the header, so a
// proxy can set a coarse default that clients refine.
func queryOf(r *http.Request, o *OptionsJSON) (Query, error) {
	q, err := o.toQuery()
	if err != nil {
		return q, err
	}
	if o == nil || o.Priority == "" {
		if q.Priority, err = parsePriority(r.Header.Get("X-Priority")); err != nil {
			return q, fmt.Errorf("options: X-Priority: %w", err)
		}
	}
	return q, nil
}

// parsePriority maps the wire spelling of an admission class, in any case.
func parsePriority(s string) (int, error) {
	switch strings.ToLower(s) {
	case "", "interactive":
		return PriorityInteractive, nil
	case "batch":
		return PriorityBatch, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want interactive or batch)", s)
}

// SetRefJSON is the wire form of a SetRef.
type SetRefJSON struct {
	Set string         `json:"set,omitempty"` // named set declared by the graph
	IDs []graph.NodeID `json:"ids,omitempty"` // explicit node list
}

func (r SetRefJSON) toRef() SetRef { return SetRef{Name: r.Set, IDs: r.IDs} }

// joinCommon is the part of a join request body both routes share. Stream
// selects an NDJSON streaming response (one result object per line, flushed
// as produced; k = 0 then means "stream until exhausted"). Cursor skips the
// first Cursor results of the ranking — the "next page" continuation: a
// response's next_cursor is the Cursor of the request that continues it.
// Cursor works with and without Stream.
type joinCommon struct {
	Graph   string       `json:"graph"`
	K       int          `json:"k"`
	Stream  bool         `json:"stream,omitempty"`
	Cursor  int          `json:"cursor,omitempty"`
	Explain bool         `json:"explain,omitempty"` // dry run: return the plan, execute nothing
	Options *OptionsJSON `json:"options,omitempty"`
}

// join2Request is the POST /join2 body.
type join2Request struct {
	joinCommon
	P SetRefJSON `json:"p"`
	Q SetRefJSON `json:"q"`
}

// edgeUpdateRequest is the POST /graphs/{name}/edges body: one atomic batch
// of weighted-arc insertions and deletions. An add of an existing arc sums
// into its weight (the graph builder's duplicate convention); a del removes
// the directed arc entirely and is a no-op if absent. Deletions apply after
// additions. Adds may name node ids below n + 2·len(add), growing the graph
// (ErrNodeLimit past that). The whole batch is durable (or rejected) as a
// unit.
type edgeUpdateRequest struct {
	Add []edgeAddJSON `json:"add,omitempty"`
	Del []edgeDelJSON `json:"del,omitempty"`
}

type edgeAddJSON struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
	W float64      `json:"w"`
}

type edgeDelJSON struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
}

// pairJSON is one served 2-way result.
type pairJSON struct {
	P     graph.NodeID `json:"p"`
	Q     graph.NodeID `json:"q"`
	Score float64      `json:"score"`
}

// joinNRequest is the POST /joinN body. The query graph is given either as a
// shape over the sets (chain | triangle | star | clique) or as explicit
// edges indexing into sets.
type joinNRequest struct {
	joinCommon
	Sets  []SetRefJSON `json:"sets"`
	Shape string       `json:"shape,omitempty"`
	Edges [][2]int     `json:"edges,omitempty"`
}

// answerJSON is one served n-way answer.
type answerJSON struct {
	Nodes []graph.NodeID `json:"nodes"`
	Score float64        `json:"score"`
}

// maxQuerySets bounds the sets one n-way request may name. A clique over n
// sets is n(n−1)/2 edges, so the bound is checked before any shape expands
// (checkQuerySets); explicit edges are bounded with it, since the query
// graph rejects a repeated edge.
const maxQuerySets = 64

// checkQuerySets rejects an n-way request that names more than maxQuerySets
// sets.
func checkQuerySets(n int) error {
	if n > maxQuerySets {
		return fmt.Errorf("joinN: %d sets named, at most %d allowed", n, maxQuerySets)
	}
	return nil
}

// shapeEdges expands a named query shape (empty means chain) over n sets
// into explicit edges, one arc per side: chain i → i+1, triangle 0 → 1 →
// 2 → 0, star centre 0 → every leaf, clique i → j for every i < j. Only
// chain matches its core builder; core.Triangle and core.Clique add the
// reverse arcs and core.Star points leaf → centre.
func shapeEdges(shape string, n int) ([][2]int, error) {
	switch shape {
	case "chain", "":
		if n < 2 {
			return nil, fmt.Errorf("chain needs >= 2 sets, got %d", n)
		}
		edges := make([][2]int, 0, n-1)
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
		return edges, nil
	case "triangle":
		if n != 3 {
			return nil, fmt.Errorf("triangle needs exactly 3 sets, got %d", n)
		}
		return [][2]int{{0, 1}, {1, 2}, {2, 0}}, nil
	case "star":
		if n < 2 {
			return nil, fmt.Errorf("star needs >= 2 sets, got %d", n)
		}
		edges := make([][2]int, 0, n-1)
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{0, i})
		}
		return edges, nil
	case "clique":
		if n < 2 {
			return nil, fmt.Errorf("clique needs >= 2 sets, got %d", n)
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
		return edges, nil
	}
	return nil, fmt.Errorf("unknown shape %q (want chain, triangle, star, or clique)", shape)
}

// writeSvcError maps a service error to its transport status: queue-full
// rejections are 429 and drain rejections 503 (both with Retry-After — the
// condition is transient by construction), everything else stays a 400.
func writeSvcError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// queryFromURL parses the option knobs the GET routes (/score, /explain)
// share from query parameters — one parser, so the two routes cannot drift.
// Knobs a route does not use (e.g. agg on /score) are harmlessly ignored
// downstream.
func queryFromURL(r *http.Request) (Query, error) {
	qp := r.URL.Query()
	opts := OptionsJSON{
		Agg:     qp.Get("agg"),
		Measure: qp.Get("measure"),
		Algo:    qp.Get("algo"),
	}
	for _, ro := range retiredOptions {
		if qp.Has(ro.name) {
			return Query{}, fmt.Errorf("options: unknown parameter %s: %s", ro.name, ro.hint)
		}
	}
	var err error
	if s := qp.Get("dhte"); s != "" {
		if opts.DHTE, err = strconv.ParseBool(s); err != nil {
			return Query{}, fmt.Errorf("options: bad dhte %q", s)
		}
	}
	// A fixed order, so a query with several bad numbers always reports the
	// same one.
	for _, f := range []struct {
		name string
		dst  *float64
	}{{"lambda", &opts.Lambda}, {"epsilon", &opts.Epsilon}} {
		if s := qp.Get(f.name); s != "" {
			if *f.dst, err = strconv.ParseFloat(s, 64); err != nil {
				return Query{}, fmt.Errorf("options: bad %s %q", f.name, s)
			}
		}
	}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"d", &opts.D}, {"m", &opts.M}} {
		if s := qp.Get(f.name); s != "" {
			if *f.dst, err = strconv.Atoi(s); err != nil {
				return Query{}, fmt.Errorf("options: bad %s %q", f.name, s)
			}
		}
	}
	return queryOf(r, &opts)
}

// retiredOptions are the option names this server no longer accepts, each
// with the hint its rejection carries. The GET routes ignore unknown
// parameters, so without the explicit rejection a stale ?ppr=true would
// silently score plain DHT.
var retiredOptions = []struct{ name, hint string }{
	{"ppr", `select the measure by name instead ("measure":"ppr", with lambda as its damping factor)`},
	{"accuracy", "removed: it never changed an answer and no longer changes the plan"},
	{"relabel", "removed: every join runs on the graph as loaded, in the caller's ids"},
	{"workers", "removed: every join runs on one goroutine; -max-concurrency caps the joins in flight"},
	{"tenant", "removed: admission is one queue with two classes; select the class with priority"},
}

// decodeJSON strictly decodes a request body.
func decodeJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		return nil
	}
	for _, ro := range retiredOptions {
		if strings.Contains(err.Error(), `unknown field "`+ro.name+`"`) {
			return fmt.Errorf("%w: %s", err, ro.hint)
		}
	}
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the consistent error envelope payload: every error response
// (and every in-band NDJSON error line) carries the same shape, so clients
// parse one structure everywhere.
func errorBody(err error) map[string]any {
	return map[string]any{"message": err.Error()}
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody(err)
	body["status"] = status
	writeJSON(w, status, map[string]any{"error": body})
}
