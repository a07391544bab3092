package dht

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// yTestGraph is a random directed graph with what a Y⁺ₗ table walk must
// survive: sinks, self-loops, and nodes no arc enters (every node v with
// v%13 == 5), at degrees low enough that the forward hop sets of a small
// target set stay below half the edges.
func yTestGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, true)
	for u := 0; u < n; u++ {
		if u%17 == 3 {
			continue // a sink
		}
		if u%11 == 0 && u%13 != 5 {
			b.AddEdge(graph.NodeID(u), graph.NodeID(u), 2) // a self-loop
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			v := rng.Intn(n)
			if v%13 == 5 {
				v++ // no arc enters v
			}
			b.AddEdge(graph.NodeID(u), graph.NodeID(v%n), float64(1+rng.Intn(3)))
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// ySet draws size ids of an n-node graph, some of them repeated, and (when
// from is non-empty) some shared with from.
func ySet(rng *rand.Rand, n, size int, from []graph.NodeID) []graph.NodeID {
	set := make([]graph.NodeID, size)
	for i := range set {
		switch {
		case i > 0 && rng.Intn(6) == 0:
			set[i] = set[rng.Intn(i)] // a repeated id
		case len(from) > 0 && rng.Intn(4) == 0:
			set[i] = from[rng.Intn(len(from))] // P ∩ Q ≠ ∅
		default:
			set[i] = graph.NodeID(rng.Intn(n))
		}
	}
	return set
}

// TestYBoundTablesMatchSolo pins both ways a Y⁺ₗ table is built to the
// reference walk, == at every (q, l) entry and every raw reach mass: a lone
// table on a width-1 engine, whose last two steps gather at Q and Q ∪ in(Q)
// when they would be sweeps, and 1..W+1 tables as the lanes of batched
// forward walks (more than W split into two walks), some sharing one P (a
// star query). Sets repeat ids, overlap, include targets no arc enters, and
// are sometimes a majority of the nodes (no restriction); the hop sets are
// sometimes cut by the |E|/2 rule. The counters prove each case occurred: a
// gather from a tracked frontier, one after a sweep, a tail cut to R0, an
// unrestricted table and a chunked lane walk.
func TestYBoundTablesMatchSolo(t *testing.T) { eachLaneBody(t, testYBoundTablesMatchSolo) }

func testYBoundTablesMatchSolo(t *testing.T) {
	const d = 6
	graphs := append(sparseTestGraphs(t), yTestGraph(t, 240, 1), yTestGraph(t, 90, 2))
	var trackedGather, denseGather, cut, unrestricted, chunked int
	for gi, g := range graphs {
		n := g.NumNodes()
		for pi, params := range []Params{DHTLambda(0.4), PPR(0.5)} {
			rng := rand.New(rand.NewSource(int64(gi*10 + pi)))
			ref := refEngine(t, g, params, d)
			lone := mustEngine(t, g, params, d)
			be := mustBatchEngine(t, g, params, d, DefaultBatchWidth)
			for it := 0; it < 16; it++ {
				threshold := []float64{1e-9, 0.05, 0, 1e9}[rng.Intn(4)]
				lone.DenseThreshold, be.DenseThreshold = threshold, threshold
				pairs := 1 + rng.Intn(DefaultBatchWidth+1)
				if pairs > DefaultBatchWidth {
					chunked++
				}
				ps, qs := make([][]graph.NodeID, pairs), make([][]graph.NodeID, pairs)
				for c := range ps {
					size := func() int { return []int{1, 3, n / 12, n/2 + 1}[rng.Intn(4)] }
					if c > 0 && rng.Intn(3) == 0 {
						ps[c] = ps[0] // the star shape: edges from one set
					} else {
						ps[c] = ySet(rng, n, size(), nil)
					}
					qs[c] = append(ySet(rng, n, size(), ps[c]), 5) // node 5: no in-arcs where n > 5
				}
				lanes := NewYBoundTables(be, ps, qs)
				for c := range ps {
					p, q := ps[c], qs[c]
					want := ref.reachProbsBatch([][]graph.NodeID{p}, [][]graph.NodeID{q}, d, nil)[0]
					rs := newReadSet(g, q, false)
					switch {
					case rs == nil:
						unrestricted++
					case rs.tail[0].nodes != nil && rs.tail[1].nodes == nil:
						cut++
					}
					sweeps, gathers := lone.EdgeSweeps, lone.GatherSteps
					tailed := lone.reachProbsBatch([][]graph.NodeID{p}, [][]graph.NodeID{q}, d, rs)[0]
					sweeps, gathers = lone.EdgeSweeps-sweeps, lone.GatherSteps-gathers
					if gathers > 0 && sweeps == 0 {
						trackedGather++
					} else if gathers > 0 {
						denseGather++
					}
					for i := range want {
						if !slices.Equal(tailed[i], want[i]) {
							t.Fatalf("graph %d %v call %d pair %d: reach at step %d: tailed %v, reference %v",
								gi, params, it, c, i+1, tailed[i], want[i])
						}
					}
					refTable := newYBoundTable(g, params, p, q, want)
					for name, got := range map[string]*YBoundTable{
						"lone": NewYBoundTables(lone, [][]graph.NodeID{p}, [][]graph.NodeID{q})[0],
						"lane": lanes[c],
					} {
						if !got.BuiltFor(g, params, d, p, q) {
							t.Fatalf("%s table of pair %d not built for its own (P, Q, d)", name, c)
						}
						for qi := range q {
							if !slices.Equal(got.y[qi], refTable.y[qi]) {
								t.Fatalf("graph %d %v call %d pair %d target %d: %s table %v != reference %v",
									gi, params, it, c, q[qi], name, got.y[qi], refTable.y[qi])
							}
						}
					}
				}
			}
		}
	}
	if trackedGather == 0 || denseGather == 0 || cut == 0 || unrestricted == 0 || chunked == 0 {
		t.Fatalf("cases taken: tracked→gather %d, dense→gather %d, R1 cut %d, unrestricted %d, chunked lanes %d; want each at least once",
			trackedGather, denseGather, cut, unrestricted, chunked)
	}
}

// TestYBoundTableWorkGate pins the exact kernel work of both table paths on
// a fixed 2 400-node community graph with 60-node sets: a lone table on a
// width-1 engine gathers its last two steps at Q instead of sweeping, and
// three tables are the lanes of one forward walk that counts three walks and
// sweeps the graph once per dense step.
func TestYBoundTableWorkGate(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{800, 800, 800}, PIn: 0.01, POut: 0.01, Seed: 1, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const d = 8
	params := DHTLambda(0.2)
	p, q := sets[0].Nodes()[:60], sets[1].Nodes()[:60]

	lone := mustEngine(t, g, params, d)
	lone.reachProbsBatch([][]graph.NodeID{p}, [][]graph.NodeID{q}, d, nil)
	untailed := [3]int64{lone.EdgeSweeps, lone.SparseSteps, lone.GatherSteps}
	lone = mustEngine(t, g, params, d)
	NewYBoundTables(lone, [][]graph.NodeID{p}, [][]graph.NodeID{q})
	tailed := [3]int64{lone.EdgeSweeps, lone.SparseSteps, lone.GatherSteps}
	rs := newReadSet(g, q, false)
	t.Logf("lone table: untailed sweeps/sparse/gathers %v, tailed %v, %d frontier edges (Σ in-degree of R0 %d, R1 %d)",
		untailed, tailed, lone.FrontierEdges, rs.tail[0].edges, rs.tail[1].edges)
	if want := [3]int64{8, 0, 0}; untailed != want {
		t.Fatalf("untailed lone table: sweeps/sparse/gathers %v, want %v", untailed, want)
	}
	// The gathers scan R0's and R1's in-edges and nothing else.
	if want := [3]int64{6, 0, 2}; tailed != want || lone.FrontierEdges != 14063 || rs.tail[0].edges+rs.tail[1].edges != 14063 {
		t.Fatalf("tailed lone table: sweeps/sparse/gathers %v and %d frontier edges, want %v and 14063", tailed, lone.FrontierEdges, want)
	}

	be := mustBatchEngine(t, g, params, d, DefaultBatchWidth)
	NewYBoundTables(be, [][]graph.NodeID{p, q, p}, [][]graph.NodeID{q, sets[2].Nodes()[:60], sets[2].Nodes()[:60]})
	lanes := [4]int64{be.Walks, be.EdgeSweeps, be.SparseSteps, be.GatherSteps}
	t.Logf("3-pair lane walk: walks/sweeps/sparse/gathers %v, %d frontier edges", lanes, be.FrontierEdges)
	if want := [4]int64{3, 8, 0, 0}; lanes != want || be.FrontierEdges != 0 {
		t.Fatalf("3-pair lane walk: walks/sweeps/sparse/gathers %v and %d frontier edges, want %v and none", lanes, be.FrontierEdges, want)
	}
	// A one-lane walk on a wider engine (the ninth of nine tables) takes no tail.
	be = mustBatchEngine(t, g, params, d, DefaultBatchWidth)
	NewYBoundTables(be, [][]graph.NodeID{p}, [][]graph.NodeID{q})
	if got := [3]int64{be.EdgeSweeps, be.SparseSteps, be.GatherSteps}; got != untailed {
		t.Fatalf("one-lane walk at width %d: sweeps/sparse/gathers %v, want %v", be.W, got, untailed)
	}
}

// BenchmarkYBoundTable times the Theorem-1 precomputation on 60-node interest
// groups of the 25 000-node YouTube stand-in (a join2_cold request's sets):
// lone is one table on a width-1 engine (the 2-way join's lone table, with its
// gathered tail), lanes=3 three tables as the lanes of one forward batched walk
// (a 3-edge n-way query). The kernel work per op is reported next to the time.
func BenchmarkYBoundTable(b *testing.B) {
	ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var groups [][]graph.NodeID
	for _, s := range ds.Sets {
		if s.Len() >= 60 {
			groups = append(groups, s.Take(60).Nodes())
		}
	}
	params, d := DHTLambda(0.2), 8
	group := func(i int) []graph.NodeID { return groups[i%len(groups)] }
	report := func(b *testing.B, sweeps, frontier int64) {
		b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
		b.ReportMetric(float64(frontier)/float64(b.N), "frontier-edges/op")
	}
	b.Run("lone", func(b *testing.B) {
		e := mustEngine(b, ds.Graph, params, d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewYBoundTables(e, [][]graph.NodeID{group(i)}, [][]graph.NodeID{group(7*i + 3)})
		}
		report(b, e.EdgeSweeps, e.FrontierEdges)
	})
	b.Run("lanes=3", func(b *testing.B) {
		be := mustBatchEngine(b, ds.Graph, params, d, DefaultBatchWidth)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewYBoundTables(be,
				[][]graph.NodeID{group(3 * i), group(3*i + 1), group(3*i + 2)},
				[][]graph.NodeID{group(3*i + 1), group(3*i + 2), group(3 * i)})
		}
		report(b, be.EdgeSweeps, be.FrontierEdges)
	})
}
