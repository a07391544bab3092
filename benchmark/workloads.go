package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/graph"
)

// Sizing constants. They are the same on every commit; BENCHMARK.json fixes
// the window length (run_seconds) and README.md lists the rest.
const (
	clients      = 2     // loopback connections; nproc is 2 on the reference box
	subsetSize   = 60    // nodes per explicit-id set (join2_cold, joinN_stream)
	hotQueries   = 64    // fixed named-set queries of join2_hot (< result LRU of 128)
	mixedQueries = 64    // fixed set pairs mixed_rw draws from, uniformly
	mixedRate    = 100.0 // offered req/s of mixed_rw (about 25 % of the reference box)
	editBatch    = 4     // adds and dels per edge-update batch
	rounds       = 4     // fresh njoind processes a run spreads its window over
	setupsOnly   = 1     // set-ups made and discarded after each round, so setup_s is the median of 8 set-ups, not 4
	graphSeed    = 1     // the graphs are the same for every -seed; only the requests vary
	sliceSeconds = 1     // the window is cut into slices this long; metrics are quantiles over slices (report.go)
	oracleStride = 25    // every 25th response is recomputed by the oracle
	oracleFloor  = 8     // ... topped up from a round's first responses when that gives fewer than 8 (32 a run)
	oracleCap    = 8     // ... and thinned evenly when that gives more (the n-way reference costs 0.5 CPU-seconds a check)
	writeProbes  = 24    // edge-update batches sent after the windows by the read-only workloads, 6 a round
	youtubeScale = 0.5
	zipfS        = 1.1
)

type opKind uint8

const (
	opJoin2 opKind = iota
	opJoin2PPR
	opJoinN
	opScore
	opEdges
	numOps
)

var opNames = [numOps]string{"join2", "join2_ppr", "joinN", "score", "edges"}

// setRef, options and the *Body types mirror njoind's wire format (see
// internal/service/http.go); njoind rejects unknown fields, so only fields
// it declares appear here.
type setRef struct {
	Set string         `json:"set,omitempty"`
	IDs []graph.NodeID `json:"ids,omitempty"`
}

type options struct {
	Measure string `json:"measure,omitempty"`
}

type join2Body struct {
	Graph   string   `json:"graph"`
	P       setRef   `json:"p"`
	Q       setRef   `json:"q"`
	K       int      `json:"k"`
	Options *options `json:"options,omitempty"`
}

type joinNBody struct {
	Graph  string   `json:"graph"`
	Sets   []setRef `json:"sets"`
	Shape  string   `json:"shape"`
	K      int      `json:"k"`
	Stream bool     `json:"stream"`
}

type edgeJSON struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
	W float64      `json:"w,omitempty"`
}

type edgesBody struct {
	Add []edgeJSON `json:"add"`
	Del []edgeJSON `json:"del"`
}

// request is one generated operation: the bytes njoind sees (wire) and the
// decoded form the oracle and the ladder rungs evaluate in-process.
type request struct {
	op     opKind
	method string
	path   string
	body   []byte
	wire   []byte // the complete HTTP/1.1 request
	sig    string // what the answer depends on: the request less a 2-way join's k

	graph   string
	sets    []setRef // join2: {P, Q}; joinN: the shape's sets
	shape   string
	k       int
	measure string
	stream  bool
	u, v    graph.NodeID
	adds    []graph.Edge
	dels    [][2]graph.NodeID

	due time.Duration // open loop: offset from window start
}

func (r *request) finish() *request {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: njoind\r\n", r.method, r.path)
	if r.body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(r.body))
	}
	b.WriteString("\r\n")
	b.Write(r.body)
	r.wire = b.Bytes()
	if r.sig == "" {
		r.sig = r.path + " " + string(r.body)
	}
	return r
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire structs hold only ints, strings and finite floats
	}
	return b
}

func newJoin2(graphName string, p, q setRef, k int, measure string) *request {
	body := join2Body{Graph: graphName, P: p, Q: q, K: k}
	op := opJoin2
	if measure != "" {
		body.Options = &options{Measure: measure}
		op = opJoin2PPR
	}
	r := &request{op: op, method: "POST", path: "/join2", body: mustJSON(body),
		graph: graphName, sets: []setRef{p, q}, k: k, measure: measure}
	body.K = 0
	r.sig = string(mustJSON(body))
	return r.finish()
}

func newJoinN(graphName string, sets []setRef, shape string, k int) *request {
	body := joinNBody{Graph: graphName, Sets: sets, Shape: shape, K: k, Stream: true}
	return (&request{op: opJoinN, method: "POST", path: "/joinN", body: mustJSON(body),
		graph: graphName, sets: sets, shape: shape, k: k, stream: true}).finish()
}

func newScore(graphName string, u, v graph.NodeID) *request {
	path := "/score?graph=" + graphName + "&u=" + strconv.Itoa(int(u)) + "&v=" + strconv.Itoa(int(v))
	return (&request{op: opScore, method: "GET", path: path, graph: graphName, u: u, v: v}).finish()
}

func newEdges(graphName string, adds []graph.Edge, dels [][2]graph.NodeID) *request {
	body := edgesBody{}
	for _, e := range adds {
		body.Add = append(body.Add, edgeJSON{U: e.U, V: e.V, W: e.W})
	}
	for _, d := range dels {
		body.Del = append(body.Del, edgeJSON{U: d[0], V: d[1]})
	}
	return (&request{op: opEdges, method: "POST", path: "/graphs/" + graphName + "/edges",
		body: mustJSON(body), graph: graphName, adds: adds, dels: dels}).finish()
}

// workload describes one traffic mix. gen builds the warm-up list and the
// timed list from the run's rng and dataset; njoind sees only those requests.
type workload struct {
	name     string
	graph    string  // dataset name: "youtube" or "yeast"
	durable  bool    // njoind runs with -data-dir and -snapshot-every 16
	openRate float64 // offered req/s; 0 = closed loop with `clients` clients
	prefix   int     // requests of the traced replay through the ladder rungs
	gen      func(d *graphData, rng *rand.Rand, seconds int) (warm, timed []*request)
}

var workloads = []*workload{
	{
		name:   "join2_cold",
		graph:  "youtube",
		prefix: 32,
		gen:    genJoin2Cold,
	},
	{
		name:   "join2_hot",
		graph:  "youtube",
		prefix: 200,
		gen:    genJoin2Hot,
	},
	{
		name:   "joinN_stream",
		graph:  "yeast",
		prefix: 32,
		gen:    genJoinNStream,
	},
	{
		name:     "mixed_rw",
		graph:    "yeast",
		durable:  true,
		openRate: mixedRate,
		prefix:   32,
		gen:      genMixedRW,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generate builds w's request lists; -seed is the only source of randomness.
func generate(w *workload, d *graphData, seed int64, seconds int) (warm, timed []*request) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(slices.Index(workloads, w))))
	return w.gen(d, rng, seconds)
}

// subset draws a random n-node subset of s (all of s when it is smaller), in
// ascending id order.
func subset(rng *rand.Rand, s *graph.NodeSet, n int) setRef {
	nodes := s.Nodes()
	if n > len(nodes) {
		n = len(nodes)
	}
	ids := make([]graph.NodeID, n)
	for i, j := range rng.Perm(len(nodes))[:n] {
		ids[i] = nodes[j]
	}
	slices.Sort(ids)
	return setRef{IDs: ids}
}

// distinctSets draws n distinct named sets.
func distinctSets(rng *rand.Rand, d *graphData, n int) []*graph.NodeSet {
	out := make([]*graph.NodeSet, n)
	for i, j := range rng.Perm(len(d.Sets))[:n] {
		out[i] = d.Sets[j]
	}
	return out
}

func genJoin2Cold(d *graphData, rng *rand.Rand, _ int) (warm, timed []*request) {
	one := func() *request {
		s := distinctSets(rng, d, 2)
		return newJoin2("youtube", subset(rng, s[0], subsetSize), subset(rng, s[1], subsetSize), 50, "")
	}
	for i := 0; i < 16; i++ {
		warm = append(warm, one())
	}
	for i := 0; i < 2048; i++ {
		timed = append(timed, one())
	}
	return warm, timed
}

// population returns the rng that draws a workload's fixed query population.
// Like the graph, the population is the same for every -seed (which then
// draws the sequence of requests from it): a run's cost profile must not
// depend on which few queries a seed happened to make popular.
func population() *rand.Rand { return rand.New(rand.NewSource(graphSeed)) }

func genJoin2Hot(d *graphData, rng *rand.Rand, _ int) (warm, timed []*request) {
	ks := []int{10, 20, 50}
	byK := make([][]*request, hotQueries)
	pop := population()
	for i := range byK {
		s := distinctSets(pop, d, 2)
		p, q := setRef{Set: s[0].Name}, setRef{Set: s[1].Name}
		for _, k := range ks {
			byK[i] = append(byK[i], newJoin2("youtube", p, q, k, ""))
		}
		warm = append(warm, byK[i][len(ks)-1]) // k=50 caches the prefix for 10 and 20
	}
	zipf := rand.NewZipf(rng, zipfS, 1, hotQueries-1)
	timed = make([]*request, 1<<18)
	for i := range timed {
		timed[i] = byK[zipf.Uint64()][rng.Intn(len(ks))]
	}
	return warm, timed
}

var streamShapes = []struct {
	shape string
	n     int
}{{"chain", 3}, {"triangle", 3}, {"star", 4}, {"chain", 4}}

func genJoinNStream(d *graphData, rng *rand.Rand, _ int) (warm, timed []*request) {
	one := func() *request {
		sh := streamShapes[rng.Intn(len(streamShapes))]
		sets := make([]setRef, sh.n)
		for i, s := range distinctSets(rng, d, sh.n) {
			sets[i] = subset(rng, s, subsetSize)
		}
		return newJoinN("yeast", sets, sh.shape, 20)
	}
	for i := 0; i < 32; i++ {
		warm = append(warm, one())
	}
	for i := 0; i < 8192; i++ {
		timed = append(timed, one())
	}
	return warm, timed
}

// randomEdits draws one edge-update batch: editBatch new unit-weight arcs and
// editBatch deletions of arcs of the original graph (a deletion of an arc an
// earlier batch already removed is a no-op, which njoind accepts).
func randomEdits(rng *rand.Rand, g *graph.Graph) ([]graph.Edge, [][2]graph.NodeID) {
	n := g.NumNodes()
	adds := make([]graph.Edge, editBatch)
	for i := range adds {
		u := rng.Intn(n)
		v := (u + 1 + rng.Intn(n-1)) % n
		adds[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1}
	}
	dels := make([][2]graph.NodeID, 0, editBatch)
	for len(dels) < editBatch {
		u := graph.NodeID(rng.Intn(n))
		if to, _, _ := g.OutEdges(u); len(to) > 0 {
			dels = append(dels, [2]graph.NodeID{u, to[rng.Intn(len(to))]})
		}
	}
	return adds, dels
}

func genMixedRW(d *graphData, rng *rand.Rand, seconds int) (warm, timed []*request) {
	pairs := make([][2]setRef, mixedQueries)
	pop := population()
	for i := range pairs {
		s := distinctSets(pop, d, 2)
		pairs[i] = [2]setRef{subset(pop, s[0], subsetSize), subset(pop, s[1], subsetSize)}
	}
	n := d.Graph.NumNodes()
	one := func(roll int) *request {
		switch {
		case roll < 60:
			pq := pairs[rng.Intn(len(pairs))]
			return newJoin2("yeast", pq[0], pq[1], 20, "")
		case roll < 80:
			pq := pairs[rng.Intn(len(pairs))]
			return newJoin2("yeast", pq[0], pq[1], 20, "ppr")
		case roll < 90:
			return newScore("yeast", graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		default:
			adds, dels := randomEdits(rng, d.Graph)
			return newEdges("yeast", adds, dels)
		}
	}
	for i := 0; i < 128; i++ {
		warm = append(warm, one(rng.Intn(90))) // reads only: the window starts at the PUT's generation
	}
	// A Poisson process conditioned on its count: exactly rate x seconds
	// arrivals at uniform order statistics, so the offered load of every
	// run is the same and only the spacing varies with the seed.
	total := int(mixedRate * float64(seconds))
	dues := make([]float64, total)
	for i := range dues {
		dues[i] = rng.Float64() * float64(seconds)
	}
	slices.Sort(dues)
	for _, due := range dues {
		r := one(rng.Intn(100))
		r.due = time.Duration(due * float64(time.Second))
		timed = append(timed, r)
	}
	return warm, timed
}

// writeProbeList is the post-window edge-update probe of the read-only
// workloads, so write_p50_ms is defined on every workload.
func writeProbeList(d *graphData, name string, seed int64) []*request {
	rng := rand.New(rand.NewSource(seed*1000003 + 97))
	out := make([]*request, writeProbes)
	for i := range out {
		adds, dels := randomEdits(rng, d.Graph)
		out[i] = newEdges(name, adds, dels)
	}
	return out
}
