package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/rankjoin"
	"repro/internal/service"
)

// The suite runs a real 3-node cluster in-process: three services, three RPC
// listeners on loopback, scatter streams over actual TCP. The system
// invariant under test is bit-identity — a cluster query must reproduce the
// single-node ranking exactly (same pairs, same float64 bits, same order) —
// plus the operational properties: corner-bound early stops and replica
// failover when a node dies mid-scatter.

type testNode struct {
	node *Node
	svc  *service.Service
}

func startTestCluster(t *testing.T, n, replicas int) []testNode {
	t.Helper()
	nodes := make([]testNode, n)
	for i := range nodes {
		svc := service.New(service.Config{MaxConcurrency: 16})
		nd, err := Start(Config{
			Name:     fmt.Sprintf("node-%d", i),
			Bind:     "127.0.0.1:0",
			Replicas: replicas,
			Service:  svc,
		})
		if err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		t.Cleanup(nd.Close)
		svc.SetRouter(nd)
		nodes[i] = testNode{node: nd, svc: svc}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	addrs := make([]string, n)
	for i, tn := range nodes {
		addrs[i] = tn.node.Self().Addr
	}
	for _, tn := range nodes {
		if err := tn.node.Join(ctx, addrs); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	for i, tn := range nodes {
		if got := tn.node.Ring().Len(); got != n {
			t.Fatalf("node %d sees %d members, want %d", i, got, n)
		}
	}
	return nodes
}

// shape is one generated workload: a graph plus its P and Q sets.
type shape struct {
	name string
	gen  func(seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID)
}

func shapes(t *testing.T) []shape {
	t.Helper()
	return []shape{
		{"community", func(seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
			g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
				Sizes: []int{120, 120, 120}, PIn: 0.05, POut: 0.01, Seed: seed, MinOutLink: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g, sets[0].Nodes()[:40], sets[1].Nodes()[:40]
		}},
		{"skewed", func(seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
			// One dense community, one sparse: scores concentrate inside the
			// dense block, so most shards' streams fall under the corner
			// bound almost immediately.
			g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
				Sizes: []int{80, 200}, PIn: 0.15, POut: 0.004, Seed: seed, MinOutLink: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			p := append([]graph.NodeID{}, sets[0].Nodes()[:30]...)
			p = append(p, sets[1].Nodes()[:30]...)
			return g, p, sets[0].Nodes()[30:60]
		}},
		{"preferential", func(seed int64) (*graph.Graph, []graph.NodeID, []graph.NodeID) {
			g, err := graph.GeneratePreferential(300, 3, seed)
			if err != nil {
				t.Fatal(err)
			}
			p := make([]graph.NodeID, 50)
			q := make([]graph.NodeID, 50)
			for i := range p {
				p[i] = graph.NodeID(i)
				q[i] = graph.NodeID(100 + 2*i)
			}
			return g, p, q
		}},
	}
}

// loadAndPlace registers the graph on the coordinator and shards it.
func loadAndPlace(t *testing.T, nodes []testNode, name string, g *graph.Graph, parts, replicas int) {
	t.Helper()
	if err := nodes[0].svc.LoadGraph(name, g, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := nodes[0].node.PlaceGraph(ctx, name, parts, replicas); err != nil {
		t.Fatalf("placing %s: %v", name, err)
	}
}

func sameRanking(t *testing.T, label string, want, got []join2.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Pair != g.Pair || math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s: rank %d differs: cluster (%d,%d)=%x vs local (%d,%d)=%x",
				label, i, g.Pair.P, g.Pair.Q, math.Float64bits(g.Score),
				w.Pair.P, w.Pair.Q, math.Float64bits(w.Score))
		}
	}
}

// TestClusterBitIdenticalRankings is the acceptance property: across graph
// shapes, seeds, measures, and k, a 3-node scatter returns exactly the
// single-node ranking. The measure dimension pins the wire rule: shards
// evaluate the coordinator's resolved request, so a scattered "ppr" join is
// PPR on every shard, never the shard's own default.
func TestClusterBitIdenticalRankings(t *testing.T) {
	nodes := startTestCluster(t, 3, 2)
	baseline := service.New(service.Config{MaxConcurrency: 16})
	ctx := context.Background()
	scattered := map[string]int64{} // per measure; placement keeps some graphs' parts all local
	for _, sh := range shapes(t) {
		for _, seed := range []int64{1, 7} {
			name := fmt.Sprintf("g-%s-%d", sh.name, seed)
			g, p, q := sh.gen(seed)
			loadAndPlace(t, nodes, name, g, 3, 2)
			if err := baseline.LoadGraph(name, g, nil); err != nil {
				t.Fatal(err)
			}
			pref := service.SetRef{IDs: p}
			qref := service.SetRef{IDs: q}
			for _, measure := range []string{"dht", "reach", "ppr"} {
				query := service.Query{MeasureName: measure}
				// The full ranking makes every part contribute, so a shard
				// scoring another measure cannot hide below the cut.
				for _, k := range []int{1, 10, 57, len(p) * len(q)} {
					label := fmt.Sprintf("%s %s k=%d", name, measure, k)
					want, err := baseline.Join2(ctx, name, pref, qref, k, query)
					if err != nil {
						t.Fatalf("%s: local: %v", label, err)
					}
					before := nodes[0].node.RouterStats().ScatterQueries
					got, err := nodes[0].svc.Join2(ctx, name, pref, qref, k, query)
					if err != nil {
						t.Fatalf("%s: cluster: %v", label, err)
					}
					scattered[measure] += nodes[0].node.RouterStats().ScatterQueries - before
					sameRanking(t, label, want, got)
				}
			}
		}
	}
	for _, measure := range []string{"dht", "reach", "ppr"} {
		if scattered[measure] == 0 {
			t.Fatalf("no %s query was actually scattered — the property test ran against the local path", measure)
		}
	}
}

// TestQueryWireRoundTrip is the copy-completeness check of the cluster
// wire: every service.Query field set alone survives the scatter body's
// JSON round trip bit-exactly, or is listed here as deliberately not
// shipped. A field added to Query that cannot travel fails this test.
func TestQueryWireRoundTrip(t *testing.T) {
	localOnly := map[string]string{
		"Agg": "n-way only; scatter serves 2-way joins",
	}
	qt := reflect.TypeOf(service.Query{})
	for i := 0; i < qt.NumField(); i++ {
		f := qt.Field(i)
		var q service.Query
		fv := reflect.ValueOf(&q).Elem().Field(i)
		switch f.Name {
		case "Params":
			q.Params = dht.Params{Alpha: 1.0 / 3, Beta: -math.Pi, Lambda: 0.1 + 0.2}
		case "Agg":
			q.Agg = rankjoin.Sum
		default:
			switch fv.Kind() {
			case reflect.String:
				fv.SetString("x-" + f.Name)
			case reflect.Int, reflect.Int64:
				fv.SetInt(1234567)
			case reflect.Float64:
				fv.SetFloat(0.1 + 0.2)
			case reflect.Bool:
				fv.SetBool(true)
			default:
				t.Fatalf("Query.%s: kind %s has no test value; extend this test", f.Name, fv.Kind())
			}
		}
		raw, err := json.Marshal(scatterBody{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		var body scatterBody
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatal(err)
		}
		_, local := localOnly[f.Name]
		switch got := body.Query; {
		case local && !reflect.DeepEqual(got, service.Query{}):
			t.Errorf("Query.%s is listed local-only but reached the wire: %+v", f.Name, got)
		case !local && !reflect.DeepEqual(got, q):
			t.Errorf("Query.%s does not survive the cluster wire: sent %+v, shard sees %+v", f.Name, q, got)
		}
	}
}

// TestClusterEarlyStop pins the corner bound's operational effect: on a
// skewed workload with a small k, at least one shard stream is halted before
// it drains.
func TestClusterEarlyStop(t *testing.T) {
	nodes := startTestCluster(t, 3, 2)
	sh := shapes(t)[1] // skewed
	g, p, q := sh.gen(3)
	// Placement is deterministic in (node names, graph name): "zipf" is a
	// name whose parts land on a peer, so the query actually scatters.
	loadAndPlace(t, nodes, "zipf", g, 3, 2)
	res, err := nodes[0].svc.Join2(context.Background(), "zipf",
		service.SetRef{IDs: p}, service.SetRef{IDs: q}, 5, service.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	rs := nodes[0].node.RouterStats()
	if rs.ScatterQueries == 0 {
		t.Fatal("query did not scatter")
	}
	if rs.ShardEarlyStops < 1 {
		t.Fatalf("no shard stream was early-stopped (streams=%d early_stops=%d)",
			rs.ShardStreams, rs.ShardEarlyStops)
	}
}

// TestClusterFailover kills a shard's primary replica mid-scatter and
// requires the drained ranking to still be bit-identical: the coordinator
// fails over to the surviving replica, which resumes at the consumed cursor.
func TestClusterFailover(t *testing.T) {
	nodes := startTestCluster(t, 3, 2)
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{100, 100, 100}, PIn: 0.06, POut: 0.01, Seed: 11, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// P covers every node so no part is empty; modest Q bounds the runtime.
	p := make([]graph.NodeID, g.NumNodes())
	for i := range p {
		p[i] = graph.NodeID(i)
	}
	q := make([]graph.NodeID, 30)
	for i := range q {
		q[i] = graph.NodeID(10 * i)
	}
	const parts = 3
	loadAndPlace(t, nodes, "fg", g, parts, 2)

	// Find a part served remotely (owners exclude the coordinator) and kill
	// its primary replica mid-stream. With 3 nodes and K=2 such a part may
	// not exist for every ring layout; more parts would only lower the odds
	// of that, but guard anyway.
	victim := -1
	for i := 0; i < parts; i++ {
		owners := nodes[0].node.Ring().Owners(partKey("fg", i), 2)
		if !hasMemberName(owners, nodes[0].node.Self().Name) {
			for j := range nodes {
				if nodes[j].node.Self().Name == owners[0].Name {
					victim = j
				}
			}
			break
		}
	}
	if victim < 0 {
		t.Skip("ring layout placed every part on the coordinator; no remote primary to kill")
	}

	baseline := service.New(service.Config{MaxConcurrency: 16})
	if err := baseline.LoadGraph("fg", g, nil); err != nil {
		t.Fatal(err)
	}
	const k = 200
	pref, qref := service.SetRef{IDs: p}, service.SetRef{IDs: q}
	want, err := baseline.Join2(context.Background(), "fg", pref, qref, k, service.Query{})
	if err != nil {
		t.Fatal(err)
	}

	st, err := nodes[0].svc.OpenJoin2(context.Background(), "fg", pref, qref, service.Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	got, err := st.NextK(10)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the remote primary mid-scatter: its connections drop, its
	// listener closes, its in-flight shard streams die.
	nodes[victim].node.Close()
	rest, err := st.NextK(k - len(got))
	if err != nil {
		t.Fatalf("draining after kill: %v", err)
	}
	got = append(got, rest...)
	sameRanking(t, "failover", want, got)
	if rs := nodes[0].node.RouterStats(); rs.Failovers < 1 {
		t.Fatalf("ranking survived but no failover was recorded (streams=%d)", rs.ShardStreams)
	}
}

// TestClusterDrainFailover pins the replica-local refusal path: a shard
// whose primary replica is draining must fail over to the secondary (the
// drain rejection is a fact about that node, not the query) and still
// produce the bit-identical ranking.
func TestClusterDrainFailover(t *testing.T) {
	nodes := startTestCluster(t, 3, 2)
	sh := shapes(t)[1] // skewed
	g, p, q := sh.gen(3)
	// "zipf" places a part on [node-1, node-2] for this ring (see
	// TestClusterEarlyStop); draining node-1 forces the coordinator down
	// the owner list at stream-open time.
	loadAndPlace(t, nodes, "zipf", g, 3, 2)

	baseline := service.New(service.Config{MaxConcurrency: 16})
	if err := baseline.LoadGraph("zipf", g, nil); err != nil {
		t.Fatal(err)
	}
	pref, qref := service.SetRef{IDs: p}, service.SetRef{IDs: q}
	want, err := baseline.Join2(context.Background(), "zipf", pref, qref, 20, service.Query{})
	if err != nil {
		t.Fatal(err)
	}

	nodes[1].svc.StartDrain()
	got, err := nodes[0].svc.Join2(context.Background(), "zipf", pref, qref, 20, service.Query{})
	if err != nil {
		t.Fatalf("join with draining replica: %v", err)
	}
	sameRanking(t, "drain failover", want, got)
	rs := nodes[0].node.RouterStats()
	if rs.ScatterQueries == 0 {
		t.Fatal("query did not scatter")
	}
	if rs.Failovers < 1 {
		t.Fatalf("draining primary was not failed over (streams=%d)", rs.ShardStreams)
	}
}

// TestPlacementShipsSegments pins the shipping path: placing a graph
// registers it (with its sets) on peer services, via the store's segment
// format.
func TestPlacementShipsSegments(t *testing.T) {
	nodes := startTestCluster(t, 3, 3) // K = ring size: every node owns every part
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{50, 50}, PIn: 0.1, POut: 0.02, Seed: 5, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[0].svc.LoadGraph("shipped", g, sets); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := nodes[0].node.PlaceGraph(ctx, "shipped", 3, 3); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		infos := nodes[i].svc.Graphs()
		found := false
		for _, info := range infos {
			if info.Name == "shipped" {
				found = true
				if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
					t.Fatalf("node %d: shipped graph is %d/%d, want %d/%d",
						i, info.Nodes, info.Edges, g.NumNodes(), g.NumEdges())
				}
				if len(info.Sets) != len(sets) {
					t.Fatalf("node %d: %d sets survived shipping, want %d", i, len(info.Sets), len(sets))
				}
			}
		}
		if !found {
			t.Fatalf("node %d never received the placed graph", i)
		}
		if _, ok := nodes[i].node.placementOf("shipped"); !ok {
			t.Fatalf("node %d has the graph but no placement descriptor", i)
		}
	}
	if out := nodes[0].node.RouterStats().PlacementsOut; out != 2 {
		t.Fatalf("coordinator shipped %d segments, want 2", out)
	}
}
