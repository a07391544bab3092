package dht

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// rowsTestGraph is a random directed graph with what the gather tail must
// survive: sinks, self-loops, uneven weights, and low enough degrees that
// both hop sets of a small read set stay below half the edges.
func rowsTestGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, true)
	for u := 0; u < n; u++ {
		if u%17 == 3 {
			continue // a sink
		}
		if u%11 == 0 {
			b.AddEdge(graph.NodeID(u), graph.NodeID(u), 2) // a self-loop
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			b.AddEdge(graph.NodeID(u), graph.NodeID(rng.Intn(n)), float64(1+rng.Intn(3)))
		}
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRowsFormEngineHygiene is the property pooled engines rest on: one
// engine serves rows-form and full-form calls of both kinds, any depth, any
// active width and any sparse/dense regime in any order, and every call
// equals a fresh reference walk — == at every node for the full form,
// == at every row of the read set for the rows form. The step counters prove
// the sequence took each tail branch: a gather straight from a tracked
// frontier, a gather after a dense sweep, and a tail that stayed sparse.
func TestRowsFormEngineHygiene(t *testing.T) { eachLaneBody(t, testRowsFormEngineHygiene) }

func testRowsFormEngineHygiene(t *testing.T) {
	const d = 6
	graphs := append(sparseTestGraphs(t), rowsTestGraph(t, 240, 1), rowsTestGraph(t, 90, 2))
	for gi, g := range graphs {
		n := g.NumNodes()
		for pi, params := range []Params{DHTLambda(0.4), PPR(0.5)} {
			for _, w := range []int{1, 3, 8, 16} {
				rng := rand.New(rand.NewSource(int64(gi*1000 + pi*100 + w)))
				// Rows: a sink, a self-loop node (in the generated graphs)
				// and a few random ones; targets below are drawn so that
				// some are rows (p == q, P ∩ Q ≠ ∅).
				rows := []graph.NodeID{3, 0, 11}
				for len(rows) < 3+n/20 {
					rows = append(rows, graph.NodeID(rng.Intn(n)))
				}
				rs := NewReadSet(g, rows)
				if rs == nil || rs.tail[0].nodes == nil {
					t.Fatalf("graph %d: read set of %d rows has no gather tail", gi, len(rows))
				}
				be := mustBatchEngine(t, g, params, d, w)
				var trackedGather, denseGather, sparseTail, r1Gather int
				for it := 0; it < 120; it++ {
					kind := []Kind{FirstHit, Reach}[rng.Intn(2)]
					l := []int{1, 2, 3, 4, d}[rng.Intn(5)]
					be.DenseThreshold = []float64{1e-9, 0.05, 0, 1e9}[rng.Intn(4)]
					qs := make([]graph.NodeID, 1+rng.Intn(w))
					for c := range qs {
						switch rng.Intn(4) {
						case 0:
							qs[c] = rows[rng.Intn(len(rows))]
						case 1:
							qs[c] = qs[rng.Intn(c+1)] // duplicate target (or the zero id)
						default:
							qs[c] = graph.NodeID(rng.Intn(n))
						}
					}
					form := rs
					if rng.Intn(3) == 0 {
						form = nil
					}
					sweeps, gathers, sparse, edges := be.EdgeSweeps, be.GatherSteps, be.SparseSteps, be.FrontierEdges
					cols := be.BackWalkRowsBatch(kind, qs, l, form)
					sweeps, gathers, sparse = be.EdgeSweeps-sweeps, be.GatherSteps-gathers, be.SparseSteps-sparse
					switch {
					case form == nil:
						if gathers != 0 {
							t.Fatalf("full-form call gathered %d steps", gathers)
						}
					case gathers > 0 && sweeps == 0:
						trackedGather++
					case gathers > 0:
						denseGather++
					case sparse == int64(l):
						sparseTail++
					}
					if gathers == 2 {
						r1Gather++
					}
					if gathers > 0 && be.FrontierEdges-edges < rs.tail[0].edges {
						t.Fatalf("gathered steps added %d frontier edges, below the last hop set's %d", be.FrontierEdges-edges, rs.tail[0].edges)
					}
					check := make([]graph.NodeID, 0, n)
					if form != nil {
						check = append(check, form.rows...)
					} else {
						for u := 0; u < n; u++ {
							check = append(check, graph.NodeID(u))
						}
					}
					for c, q := range qs {
						want := refEngine(t, g, params, d).BackWalkScoresBatch(kind, []graph.NodeID{q}, l)[0]
						for _, u := range check {
							if cols[c][u] != want[u] {
								t.Fatalf("graph %d %v w=%d call %d (%v l=%d rows=%v threshold=%g) col %d (q=%d) node %d: %v != dense %v",
									gi, params, w, it, kind, l, form != nil, be.DenseThreshold, c, q, u, cols[c][u], want[u])
							}
						}
					}
				}
				if trackedGather == 0 || denseGather == 0 || sparseTail == 0 {
					t.Fatalf("graph %d w=%d: branches taken tracked→gather %d, dense→gather %d, sparse tail %d; want each at least once",
						gi, w, trackedGather, denseGather, sparseTail)
				}
				if rs.tail[1].nodes != nil && r1Gather == 0 {
					t.Fatalf("graph %d w=%d: the R1 hop set is usable but no call gathered two steps", gi, w)
				}
			}
		}
	}
}
