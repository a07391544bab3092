package dht

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// batchWidths is the spread the ISSUE calls for: solo-degenerate, tiny,
// odd (partial cache line), the cache-line width the lane kernel specialises
// (the only one its assembly bodies serve), and far wider than any test
// graph's frontier.
var batchWidths = []int{1, 2, 7, laneWidth, 64}

func mustBatchEngine(t testing.TB, g *graph.Graph, p Params, d, w int) *BatchEngine {
	t.Helper()
	be, err := NewBatchEngine(g, p, d, w)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// batchTargets deals n targets around the graph, with repeats across calls
// so the lazy β-restore path is exercised.
func batchTargets(g *graph.Graph, count, salt int) []graph.NodeID {
	n := g.NumNodes()
	out := make([]graph.NodeID, count)
	for i := range out {
		out[i] = graph.NodeID((((i*7 + salt*3) % n) + n) % n)
	}
	return out
}

// TestBatchBackWalkScoresBitIdentical is the batched kernel's central
// property: every column of a BackWalkScoresBatch must be bit-identical
// (==, not approximately equal) to a solo BackWalkScores run for that
// column's target, at every batch width, for both measure kinds, across
// repeated calls on the same engine (exercising the β-restore), and on
// batches that fall back to dense sweeps.
func TestBatchBackWalkScoresBitIdentical(t *testing.T) {
	eachLaneBody(t, testBatchBackWalkScoresBitIdentical)
}

func testBatchBackWalkScoresBitIdentical(t *testing.T) {
	for gi, g := range sparseTestGraphs(t) {
		for _, params := range []Params{DHTLambda(0.2), DHTLambda(0.7), PPR(0.5)} {
			for _, w := range batchWidths {
				be := mustBatchEngine(t, g, params, 8, w)
				solo := mustEngine(t, g, params, 8)
				for _, kind := range []Kind{FirstHit, Reach} {
					for rep := 0; rep < 3; rep++ {
						for _, steps := range []int{1, 2, 8} {
							qs := batchTargets(g, w, rep+steps)
							cols := be.BackWalkScoresBatch(kind, qs, steps)
							for c, q := range qs {
								ref := solo.BackWalkScores(kind, q, steps)
								for u := range ref {
									if cols[c][u] != ref[u] {
										t.Fatalf("graph %d %v %v w=%d steps=%d rep=%d col %d (q=%d) node %d: batch %v != solo %v",
											gi, params, kind, w, steps, rep, c, q, u, cols[c][u], ref[u])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchDenseFallbackBitIdentical forces the regimes around the
// sparse→dense switch: a threshold of zero (every step dense), a huge
// threshold (every step sparse), and ForceDense, all of which must agree
// bit-for-bit with the solo adaptive engine.
func TestBatchDenseFallbackBitIdentical(t *testing.T) {
	eachLaneBody(t, testBatchDenseFallbackBitIdentical)
}

func testBatchDenseFallbackBitIdentical(t *testing.T) {
	g := sparseTestGraphs(t)[2] // the denser ER graph: frontiers saturate fast
	params := DHTLambda(0.5)
	solo := mustEngine(t, g, params, 8)
	for _, mode := range []struct {
		name      string
		threshold float64
		force     bool
	}{
		{"always-dense", 1e-9, false},
		{"always-sparse", 1e9, false},
		{"force-dense", 0, true},
	} {
		be := mustBatchEngine(t, g, params, 8, 7)
		be.DenseThreshold = mode.threshold
		be.ForceDense = mode.force
		for rep := 0; rep < 2; rep++ {
			qs := batchTargets(g, 7, rep)
			cols := be.BackWalkScoresBatch(FirstHit, qs, 8)
			for c, q := range qs {
				ref := solo.BackWalkScores(FirstHit, q, 8)
				for u := range ref {
					if cols[c][u] != ref[u] {
						t.Fatalf("%s rep=%d col %d (q=%d) node %d: batch %v != solo %v",
							mode.name, rep, c, q, u, cols[c][u], ref[u])
					}
				}
			}
		}
	}
}

// TestBatchForwardProbsBitIdentical pins ForwardProbsBatch to the solo
// forward walks: first-hit rows against ForwardHitProbs (including p == q
// columns, which are zero by definition) and reach rows against the
// ForwardScoreKind fold.
func TestBatchForwardProbsBitIdentical(t *testing.T) {
	eachLaneBody(t, testBatchForwardProbsBitIdentical)
}

func testBatchForwardProbsBitIdentical(t *testing.T) {
	for gi, g := range sparseTestGraphs(t) {
		n := g.NumNodes()
		params := DHTLambda(0.3)
		solo := mustEngine(t, g, params, 8)
		for _, w := range batchWidths {
			be := mustBatchEngine(t, g, params, 8, w)
			for rep := 0; rep < 2; rep++ {
				ps := batchTargets(g, w, rep)
				qs := make([]graph.NodeID, w)
				for c := range qs {
					qs[c] = graph.NodeID((int(ps[c]) + c*5 + rep) % n)
				}
				if w > 1 {
					qs[w/2] = ps[w/2] // force a p == q column
				}
				rows := be.ForwardProbsBatch(FirstHit, ps, qs, 8)
				for c := range ps {
					ref := solo.ForwardHitProbs(ps[c], qs[c], 8)
					for i := range ref {
						if rows[c][i] != ref[i] {
							t.Fatalf("graph %d w=%d rep=%d col %d (%d→%d) step %d: batch %v != solo %v",
								gi, w, rep, c, ps[c], qs[c], i, rows[c][i], ref[i])
						}
					}
				}
				rows = be.ForwardProbsBatch(Reach, ps, qs, 8)
				for c := range ps {
					got := params.Score(rows[c])
					want := solo.ForwardScoreKind(Reach, ps[c], qs[c], 8)
					if got != want {
						t.Fatalf("graph %d w=%d rep=%d col %d (%d→%d): reach fold %v != solo %v",
							gi, w, rep, c, ps[c], qs[c], got, want)
					}
				}
			}
		}
	}
}

// TestBatchProperty drives the batched/solo equivalence through
// testing/quick over random ER graphs, widths, depths, and λ.
func TestBatchProperty(t *testing.T) { eachLaneBody(t, testBatchProperty) }

func testBatchProperty(t *testing.T) {
	f := func(seed int64, rawL, rawD, rawW uint8) bool {
		n := 20 + int(seed%17+17)%17
		g, err := graph.GenerateER(n, 0.12, seed)
		if err != nil {
			return false
		}
		lambda := 0.1 + float64(rawL%8)/10
		d := 1 + int(rawD%8)
		w := 1 + int(rawW%9)
		p := DHTLambda(lambda)
		be, err := NewBatchEngine(g, p, d, w)
		if err != nil {
			return false
		}
		solo, err := NewEngine(g, p, d)
		if err != nil {
			return false
		}
		qs := batchTargets(g, w, int(seed%13))
		cols := be.BackWalkScoresBatch(FirstHit, qs, d)
		for c, q := range qs {
			ref := solo.BackWalkScores(FirstHit, q, d)
			for u := range ref {
				if cols[c][u] != ref[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDuplicateTargets: the same target may occupy several columns
// (nothing in the API forbids it); each column must still match its solo
// walk.
func TestBatchDuplicateTargets(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	be := mustBatchEngine(t, g, DHTLambda(0.2), 8, 4)
	solo := mustEngine(t, g, DHTLambda(0.2), 8)
	qs := []graph.NodeID{3, 3, 7, 3}
	cols := be.BackWalkScoresBatch(FirstHit, qs, 4)
	for c, q := range qs {
		ref := solo.BackWalkScores(FirstHit, q, 4)
		for u := range ref {
			if cols[c][u] != ref[u] {
				t.Fatalf("dup col %d (q=%d) node %d: %v != %v", c, q, u, cols[c][u], ref[u])
			}
		}
	}
}

// TestBatchPoolCheckout covers GetBatch/PutBatch reuse and the pool-entry
// validation fix: engines for the wrong graph or a narrower width must be
// dropped, not handed back out.
func TestBatchPoolCheckout(t *testing.T) {
	gs := sparseTestGraphs(t)
	pl, err := NewEnginePool(gs[0], DHTLambda(0.2), 4)
	if err != nil {
		t.Fatal(err)
	}
	be := pl.GetBatch()
	if be.G != gs[0] || be.W < DefaultBatchWidth {
		t.Fatalf("GetBatch handed out engine for wrong config: G ok=%v W=%d", be.G == gs[0], be.W)
	}
	pl.PutBatch(be)

	// A foreign engine (other graph, same width) must not survive checkin.
	foreign, err := NewBatchEngine(gs[1], DHTLambda(0.2), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl.PutBatch(foreign)
	for i := 0; i < 4; i++ {
		got := pl.GetBatch()
		if got.G != gs[0] {
			t.Fatal("pool handed out a batch engine built for a different graph")
		}
		defer pl.PutBatch(got)
	}

	// Same for the solo side: a mismatched engine is dropped at Get.
	wrong, err := NewEngine(gs[1], DHTLambda(0.2), 4)
	if err != nil {
		t.Fatal(err)
	}
	pl.pool.Put(wrong) // bypass Put's validation to simulate a stale entry
	for i := 0; i < 4; i++ {
		got := pl.Get()
		if got.G != gs[0] || len(got.cur) != gs[0].NumNodes() {
			t.Fatal("pool handed out an engine with scratch sized to a different graph")
		}
		defer pl.Put(got)
	}

}

// TestBatchCountersFlushToSink checks the Sink aggregation: Walks counts
// columns, and the per-batch deltas arrive atomically.
func TestBatchCountersFlushToSink(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	var sink Counters
	be := mustBatchEngine(t, g, DHTLambda(0.2), 4, 4)
	be.Sink = &sink
	be.BackWalkScoresBatch(FirstHit, []graph.NodeID{0, 1, 2}, 4)
	be.ForwardProbsBatch(FirstHit, []graph.NodeID{0, 1}, []graph.NodeID{3, 4}, 4)
	snap := sink.Snapshot()
	if snap.Walks != 5 {
		t.Fatalf("sink walks = %d, want 5 (3 backward columns + 2 forward)", snap.Walks)
	}
	if snap.EdgeSweeps != be.EdgeSweeps || snap.FrontierEdges != be.FrontierEdges {
		t.Fatalf("sink deltas diverge from engine counters: %+v vs sweeps=%d frontier=%d",
			snap, be.EdgeSweeps, be.FrontierEdges)
	}
}
