package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/dhtjoin"
	"repro/internal/graph"
)

// Reference executors the oracle forces: the non-pruning baselines, so a
// pruning bug in the planner's usual picks (B-IDJ-Y, PJ-i) cannot hide.
const (
	refTwoWay = "B-BJ"
	refNWay   = "AP"
)

// oracle recomputes responses in-process with one-shot dhtjoin on its own
// copy of the graph, which it edits in step with the acknowledged writes.
type oracle struct {
	d      *graphData
	graphs []*graph.Graph // graphs[c] is the graph after the first c edits
	edits  []*request     // acknowledged writes, in generation order
	memo   map[memoKey]any
}

// memoKey names an expected answer by the graph it was computed on and what
// the request's answer depends on. A run's rounds share one memo: they all
// start from the same graph, and each round's edited graphs are its own.
type memoKey struct {
	g   *graph.Graph
	sig string
}

// maxK is the largest k any workload asks of a 2-way join. The oracle ranks
// that many once per (P, Q) and compares prefixes, so the three k of one
// join2_hot query cost one reference join.
const maxK = 50

func newOracle(d *graphData, memo map[memoKey]any) *oracle {
	return &oracle{d: d, graphs: []*graph.Graph{d.Graph}, memo: memo}
}

// graphAt returns the graph after the first c acknowledged edits.
func (o *oracle) graphAt(c int) (*graph.Graph, error) {
	if c > len(o.edits) {
		return nil, fmt.Errorf("oracle: generation %d beyond the %d acknowledged writes", c, len(o.edits))
	}
	for len(o.graphs) <= c {
		e := o.edits[len(o.graphs)-1]
		next, err := graph.ApplyEdits(o.graphs[len(o.graphs)-1], e.adds, e.dels)
		if err != nil {
			return nil, err
		}
		o.graphs = append(o.graphs, next)
	}
	return o.graphs[c], nil
}

// sets resolves the request's set references: a named set of the graph, or
// an explicit id list.
func (o *oracle) sets(r *request) ([]*graph.NodeSet, error) {
	out := make([]*graph.NodeSet, len(r.sets))
	for i, ref := range r.sets {
		if ref.Set == "" {
			out[i] = graph.NewNodeSet("ids", ref.IDs)
			continue
		}
		s, err := o.d.Set(ref.Set)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// shapeEdges expands a wire shape the way njoind's HTTP layer does. That is
// not what core.Triangle and core.Star build (both directions per side, and
// leaf-to-centre arcs), so the oracle must not use those helpers.
func shapeEdges(shape string, n int) [][2]int {
	var edges [][2]int
	switch shape {
	case "chain":
		for i := 0; i+1 < n; i++ {
			edges = append(edges, [2]int{i, i + 1})
		}
	case "triangle":
		edges = [][2]int{{0, 1}, {1, 2}, {2, 0}}
	case "star":
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{0, i})
		}
	}
	return edges
}

func queryGraph(r *request, sets []*graph.NodeSet) *dhtjoin.QueryGraph {
	qg := dhtjoin.NewQueryGraph(sets...)
	for _, e := range shapeEdges(r.shape, len(sets)) {
		qg.AddEdge(e[0], e[1])
	}
	return qg
}

// expect evaluates r on g with one-shot dhtjoin forced to the given
// executors; "" lets the planner pick (the dhtjoin ladder rung).
func (o *oracle) expect(g *graph.Graph, r *request, algo2, algoN string) (any, error) {
	ctx := context.Background()
	opts := &dhtjoin.Options{MeasureName: r.measure}
	sets, err := o.sets(r)
	if err != nil {
		return nil, err
	}
	switch r.op {
	case opJoin2, opJoin2PPR:
		return dhtjoin.NewPairQuery(g, sets[0], sets[1]).WithOptions(opts).
			WithHints(dhtjoin.Hints{Algorithm: algo2}).TopKPairs(ctx, max(r.k, maxK))
	case opJoinN:
		return dhtjoin.NewJoinQuery(g, queryGraph(r, sets)).WithOptions(opts).
			WithHints(dhtjoin.Hints{Algorithm: algoN}).TopK(ctx, r.k)
	case opScore:
		return dhtjoin.Score(g, r.u, r.v, opts)
	}
	return nil, fmt.Errorf("oracle: %s has no expected answer", opNames[r.op])
}

// want names one expected answer: request r evaluated after gen edits.
type want struct {
	r   *request
	gen int
}

// prepare computes the expected answers not yet memoized, on every core:
// the reference executors are serial and the window is over by now.
func (o *oracle) prepare(wants []want) {
	type job struct {
		r   *request
		key memoKey
	}
	var jobs []job
	for _, w := range wants {
		g, err := o.graphAt(w.gen)
		if err != nil {
			continue // check reports it
		}
		key := memoKey{g, w.r.sig}
		if _, done := o.memo[key]; !done {
			o.memo[key] = nil // claimed; filled below
			jobs = append(jobs, job{w.r, key})
		}
	}
	answers := make([]any, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < len(jobs); j = int(next.Add(1) - 1) {
				ans, err := o.expect(jobs[j].key.g, jobs[j].r, refTwoWay, refNWay)
				if err != nil {
					ans = err
				}
				answers[j] = ans
			}
		}()
	}
	wg.Wait()
	for j, jb := range jobs {
		o.memo[jb.key] = answers[j]
	}
}

// check compares one response body with the oracle's answer for w,
// returning a description of the mismatch or "".
func (o *oracle) check(w want, body []byte) string {
	g, err := o.graphAt(w.gen)
	if err != nil {
		return err.Error()
	}
	key := memoKey{g, w.r.sig}
	if _, ok := o.memo[key]; !ok {
		o.prepare([]want{w})
	}
	switch ans := o.memo[key].(type) {
	case error:
		return "oracle: " + ans.Error()
	case []dhtjoin.PairResult:
		return comparePairs(body, ans[:min(w.r.k, len(ans))])
	case []dhtjoin.Answer:
		return compareAnswers(body, ans)
	case float64:
		var got struct {
			Score *float64 `json:"score"`
		}
		if err := json.Unmarshal(body, &got); err != nil || got.Score == nil {
			return fmt.Sprintf("score: undecodable body %.80q", body)
		}
		if *got.Score != ans {
			return fmt.Sprintf("score: got %v want %v", *got.Score, ans)
		}
	}
	return ""
}

type pairJSON struct {
	P     graph.NodeID `json:"p"`
	Q     graph.NodeID `json:"q"`
	Score float64      `json:"score"`
}

// comparePairs demands the identical order and float64-== scores.
func comparePairs(body []byte, want []dhtjoin.PairResult) string {
	var got struct {
		Results []pairJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Sprintf("join2: undecodable body %.80q", body)
	}
	if len(got.Results) != len(want) {
		return fmt.Sprintf("join2: got %d results want %d", len(got.Results), len(want))
	}
	for i, w := range want {
		if g := got.Results[i]; g.P != w.Pair.P || g.Q != w.Pair.Q || g.Score != w.Score {
			return fmt.Sprintf("join2: rank %d got (%d,%d,%v) want (%d,%d,%v)", i, g.P, g.Q, g.Score, w.Pair.P, w.Pair.Q, w.Score)
		}
	}
	return ""
}

type answerJSON struct {
	Nodes []graph.NodeID `json:"nodes"`
	Score float64        `json:"score"`
}

// parseStream splits an NDJSON response into its answers and terminator.
func parseStream(body []byte) (answers []answerJSON, done map[string]any, err error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	for i, line := range lines {
		if i == len(lines)-1 {
			if err := json.Unmarshal(line, &done); err != nil {
				return nil, nil, err
			}
			break
		}
		var a answerJSON
		if err := json.Unmarshal(line, &a); err != nil {
			return nil, nil, err
		}
		answers = append(answers, a)
	}
	return answers, done, nil
}

// compareAnswers demands the ==-identical score sequence and, outside the
// last tie group (which k may cut anywhere, and whose order n-way joins
// leave unspecified), the same multiset of tuples.
func compareAnswers(body []byte, want []dhtjoin.Answer) string {
	got, done, err := parseStream(body)
	if err != nil || done["done"] != true {
		return fmt.Sprintf("joinN: undecodable stream %.80q", body)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("joinN: got %d answers want %d", len(got), len(want))
	}
	if len(want) == 0 {
		return ""
	}
	last := want[len(want)-1].Score
	tuples := make(map[string]int)
	for i, w := range want {
		if got[i].Score != w.Score {
			return fmt.Sprintf("joinN: rank %d score got %v want %v", i, got[i].Score, w.Score)
		}
		if w.Score != last {
			tuples[tupleKey(w.Nodes)]++
			tuples[tupleKey(got[i].Nodes)]--
		}
	}
	for k, n := range tuples {
		if n != 0 {
			return fmt.Sprintf("joinN: tuple %s differs from the oracle's ranking by %+d", k, -n)
		}
	}
	return ""
}

func tupleKey(nodes []graph.NodeID) string {
	var sb strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&sb, "%d,", n)
	}
	return sb.String()
}
