package dht

import (
	"math/rand"
	"slices"
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
// the sequence took each tail branch — a gather straight from a tracked
// frontier, a gather after a dense sweep, and a tail that stayed sparse —
// and pulled a dense step.
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
				if be.PullSweeps == 0 {
					t.Fatalf("graph %d w=%d: no dense step ran in pull form", gi, w)
				}
			}
		}
	}
}

// TestPulledWalksInterleave pins the wholesale clear a dense batch leaves to
// beginBatch: a pulled step overwrites every row and nothing clears the
// consumed vector, so both vectors hold stale mass until the next batch on
// the engine begins. On one engine of every width, backward walks (full and
// rows form) and forward walks (ForwardProbsBatch and the Y⁺ reach walk)
// follow each other in random order under the every-step-dense, adaptive and
// every-step-sparse switch, and each equals a fresh reference walk. The
// counters prove a walk of each direction followed a pulled walk of the
// other.
func TestPulledWalksInterleave(t *testing.T) { eachLaneBody(t, testPulledWalksInterleave) }

func testPulledWalksInterleave(t *testing.T) {
	const d = 6
	graphs := append(sparseTestGraphs(t), rowsTestGraph(t, 240, 1))
	for gi, g := range graphs {
		n := g.NumNodes()
		params := DHTLambda(0.4)
		rows := batchTargets(g, 2+n/20, gi)
		rs := NewReadSet(g, rows)
		all := make([]graph.NodeID, n)
		for u := range all {
			all[u] = graph.NodeID(u)
		}
		for _, w := range batchWidths {
			rng := rand.New(rand.NewSource(int64(gi*100 + w)))
			be := mustBatchEngine(t, g, params, d, w)
			var forwardAfter, backwardAfter int // walks right after a pulled walk of the other direction
			prevPulled, prevBackward := false, false
			for it := 0; it < 48; it++ {
				be.DenseThreshold = []float64{1e-9, 0, 1e9}[rng.Intn(3)]
				steps := []int{2, 3, d}[rng.Intn(3)]
				kind := []Kind{FirstHit, Reach}[rng.Intn(2)]
				ps, qs := make([]graph.NodeID, 1+rng.Intn(w)), make([]graph.NodeID, 0, w)
				for c := range ps {
					ps[c] = graph.NodeID(rng.Intn(n))
					qs = append(qs, graph.NodeID(rng.Intn(n)))
				}
				ref := refEngine(t, g, params, d)
				pulls := be.PullSweeps
				op := rng.Intn(4)
				backward := op < 2
				switch op {
				case 0, 1: // backward, full form then rows form
					form, check := rs, rows
					if op == 0 {
						form, check = nil, all
					}
					cols := be.BackWalkRowsBatch(kind, qs, steps, form)
					for c, q := range qs {
						want := ref.BackWalkScoresBatch(kind, []graph.NodeID{q}, steps)[0]
						for _, u := range check {
							if cols[c][u] != want[u] {
								t.Fatalf("graph %d w=%d call %d: backward col %d (q=%d) node %d: %v != reference %v",
									gi, w, it, c, q, u, cols[c][u], want[u])
							}
						}
					}
				case 2:
					got := be.ForwardProbsBatch(kind, ps, qs, steps)
					for c := range ps {
						if want := ref.ForwardProbsBatch(kind, ps[c:c+1], qs[c:c+1], steps)[0]; !slices.Equal(got[c], want) {
							t.Fatalf("graph %d w=%d call %d: forward lane %d (%d→%d): %v != reference %v",
								gi, w, it, c, ps[c], qs[c], got[c], want)
						}
					}
				case 3:
					seeds, targets := make([][]graph.NodeID, len(ps)), make([][]graph.NodeID, len(ps))
					for c := range seeds {
						seeds[c], targets[c] = []graph.NodeID{ps[c], qs[c]}, rows
					}
					got := be.reachProbsBatch(seeds, targets, steps, nil)
					for c := range seeds {
						want := ref.reachProbsBatch(seeds[c:c+1], targets[c:c+1], steps, nil)[0]
						for i := range want {
							if !slices.Equal(got[c][i], want[i]) {
								t.Fatalf("graph %d w=%d call %d: reach lane %d step %d: %v != reference %v",
									gi, w, it, c, i+1, got[c][i], want[i])
							}
						}
					}
				}
				switch {
				case !prevPulled || prevBackward == backward:
				case backward:
					backwardAfter++
				default:
					forwardAfter++
				}
				prevPulled, prevBackward = be.PullSweeps > pulls, backward
			}
			if forwardAfter == 0 || backwardAfter == 0 {
				t.Fatalf("graph %d w=%d: forward after a pulled backward walk %d times, backward after a pulled forward walk %d; want each at least once",
					gi, w, forwardAfter, backwardAfter)
			}
		}
	}
}
