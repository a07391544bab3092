package dht

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// batchWidths is the width table every walk primitive is checked over: the
// lone walk, tiny, odd (partial cache line), the cache-line width the lane
// kernel specialises (the only one its assembly bodies serve), and far wider
// than any test graph's frontier.
var batchWidths = []int{1, 2, 7, laneWidth, 64}

// regime is a sparse/dense switch setting.
type regime struct {
	name      string
	threshold float64
	force     bool
}

// regimes are the settings every width runs under: the default adaptive
// switch, every step dense, every step sparse, and the sparse path disabled.
var regimes = []regime{{"adaptive", 0, false}, {"always-dense", 1e-9, false}, {"always-sparse", 1e9, false}, {"force-dense", 0, true}}

func mustBatchEngine(t testing.TB, g *graph.Graph, p Params, d, w int) *BatchEngine {
	t.Helper()
	be, err := NewBatchEngine(g, p, d, w)
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// regimeEngine is an engine of width w under regime r.
func regimeEngine(t testing.TB, g *graph.Graph, p Params, d, w int, r regime) *BatchEngine {
	be := mustBatchEngine(t, g, p, d, w)
	be.DenseThreshold, be.ForceDense = r.threshold, r.force
	return be
}

// refEngine is the bit-identity reference every walk is compared with: a
// width-1 ForceDense engine. Width 1 always runs the lane kernel's Go body,
// so each of its steps is the textbook ascending dense loop.
func refEngine(t testing.TB, g *graph.Graph, p Params, d int) *BatchEngine {
	return regimeEngine(t, g, p, d, 1, regimes[3])
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

// sameColumns reports the first node where a column of qs walked on be is
// not == the reference column of its target, or "" when there is none.
func sameColumns(be, ref *BatchEngine, kind Kind, qs []graph.NodeID, steps int) string {
	cols := be.BackWalkScoresBatch(kind, qs, steps)
	for c, q := range qs {
		want := ref.BackWalkScoresBatch(kind, []graph.NodeID{q}, steps)[0]
		for u := range want {
			if cols[c][u] != want[u] {
				return fmt.Sprintf("w=%d %v steps=%d col %d (q=%d) node %d: %v != reference %v",
					be.W, kind, steps, c, q, u, cols[c][u], want[u])
			}
		}
	}
	return ""
}

// TestBatchBackWalkScoresBitIdentical is the engine's central property:
// every column of a BackWalkScoresBatch is bit-identical (==, not
// approximately equal) to the reference walk of that column's target, at
// every width of the table, for both measure kinds, across repeated calls on
// one engine (exercising the β-restore), under the adaptive switch;
// TestBatchDenseFallbackBitIdentical runs the same table under the forced
// regimes.
func TestBatchBackWalkScoresBitIdentical(t *testing.T) {
	eachLaneBody(t, func(t *testing.T) { testColumnTable(t, regimes[:1]) })
}

// TestBatchDenseFallbackBitIdentical is the width table under the regimes
// around the sparse→dense switch: every step dense, every step sparse, and
// the sparse path disabled.
func TestBatchDenseFallbackBitIdentical(t *testing.T) {
	eachLaneBody(t, func(t *testing.T) { testColumnTable(t, regimes[1:]) })
}

func testColumnTable(t *testing.T, regs []regime) {
	// pulls[r][w] counts the dense steps that ran in pull form: every regime
	// that goes dense before a walk's last step pulls at every width, the
	// scatter reference and the sparse-only switch never do.
	pulls := make(map[string]map[int]int64)
	for gi, g := range sparseTestGraphs(t) {
		for _, params := range []Params{DHTLambda(0.2), DHTLambda(0.7), PPR(0.5)} {
			ref := refEngine(t, g, params, 8)
			for _, w := range batchWidths {
				for _, r := range regs {
					be := regimeEngine(t, g, params, 8, w, r)
					for _, kind := range []Kind{FirstHit, Reach} {
						for rep := 0; rep < 2; rep++ {
							for _, steps := range []int{1, 2, 8} {
								if msg := sameColumns(be, ref, kind, batchTargets(g, w, rep+steps), steps); msg != "" {
									t.Fatalf("graph %d %v %s rep %d: %s", gi, params, r.name, rep, msg)
								}
							}
						}
					}
					if pulls[r.name] == nil {
						pulls[r.name] = make(map[int]int64)
					}
					pulls[r.name][w] += be.PullSweeps
				}
			}
		}
	}
	for _, r := range regs {
		for _, w := range batchWidths {
			if got, want := pulls[r.name][w] > 0, !r.force && r.threshold < 1; got != want {
				t.Errorf("%s w=%d: %d pulled sweeps, want some: %v", r.name, w, pulls[r.name][w], want)
			}
		}
	}
}

// TestBatchForwardProbsBitIdentical pins ForwardProbsBatch to the reference
// forward walks over the width table and every regime: first-hit rows
// (including p == q columns, which are zero by definition) and reach rows.
func TestBatchForwardProbsBitIdentical(t *testing.T) {
	eachLaneBody(t, testBatchForwardProbsBitIdentical)
}

func testBatchForwardProbsBitIdentical(t *testing.T) {
	for gi, g := range sparseTestGraphs(t) {
		n := g.NumNodes()
		params := DHTLambda(0.3)
		ref := refEngine(t, g, params, 8)
		for _, w := range batchWidths {
			for _, r := range regimes {
				be := regimeEngine(t, g, params, 8, w, r)
				for rep := 0; rep < 2; rep++ {
					ps := batchTargets(g, w, rep)
					qs := make([]graph.NodeID, w)
					for c := range qs {
						qs[c] = graph.NodeID((int(ps[c]) + c*5 + rep) % n)
					}
					if rep == 1 {
						qs[w/2] = ps[w/2] // a p == q column
					}
					for _, kind := range []Kind{FirstHit, Reach} {
						rows := be.ForwardProbsBatch(kind, ps, qs, 8)
						for c := range ps {
							if want := ref.ForwardProbsBatch(kind, ps[c:c+1], qs[c:c+1], 8)[0]; !slices.Equal(rows[c], want) {
								t.Fatalf("graph %d w=%d %s %v rep=%d col %d (%d→%d): %v != reference %v",
									gi, w, r.name, kind, rep, c, ps[c], qs[c], rows[c], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSparseMatchesDenseBitIdentical pins the unabsorbed reach walk behind
// the Y⁺ₗ tables over the width table and every regime: lane c seeded on a
// set and read at another equals the reference walk of that pair alone.
func TestSparseMatchesDenseBitIdentical(t *testing.T) {
	eachLaneBody(t, func(t *testing.T) {
		for gi, g := range sparseTestGraphs(t) {
			params, d := DHTLambda(0.5), 8
			ref := refEngine(t, g, params, d)
			for _, w := range batchWidths {
				seeds, targets := make([][]graph.NodeID, w), make([][]graph.NodeID, w)
				for c := range seeds {
					seeds[c], targets[c] = batchTargets(g, 1+c%3, c), batchTargets(g, 2, 5*c+1)
				}
				for _, r := range regimes {
					res := regimeEngine(t, g, params, d, w, r).reachProbsBatch(seeds, targets, d, nil)
					for c := range seeds {
						want := ref.reachProbsBatch(seeds[c:c+1], targets[c:c+1], d, nil)[0]
						for i := range want {
							if !slices.Equal(res[c][i], want[i]) {
								t.Fatalf("graph %d w=%d %s lane %d step %d: %v != reference %v", gi, w, r.name, c, i+1, res[c][i], want[i])
							}
						}
					}
				}
			}
		}
	})
}

// TestSparseMatchesDenseProperty drives ForwardScore — the lone-pair fold
// behind NL, the measure evaluators and the served /score — through
// testing/quick: random ER graphs, λ, depths and regimes, both kinds, against
// the reference.
func TestSparseMatchesDenseProperty(t *testing.T) {
	f := func(seed int64, rawL, rawD, rawR uint8) bool {
		n := 20 + int(seed%17+17)%17
		g, err := graph.GenerateER(n, 0.12, seed)
		if err != nil {
			return false
		}
		p, d := DHTLambda(0.1+float64(rawL%8)/10), 1+int(rawD%8)
		e, ref := regimeEngine(t, g, p, d, 1, regimes[int(rawR)%len(regimes)]), refEngine(t, g, p, d)
		u, q := graph.NodeID((int(seed/3)%n+n)%n), graph.NodeID((int(seed/5)%n+n)%n)
		for _, kind := range []Kind{FirstHit, Reach} {
			if e.ForwardScore(kind, u, q, d) != ref.ForwardScore(kind, u, q, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchProperty drives the backward columns through testing/quick over
// random ER graphs, widths, depths, λ and regimes.
func TestBatchProperty(t *testing.T) { eachLaneBody(t, testBatchProperty) }

func testBatchProperty(t *testing.T) {
	f := func(seed int64, rawL, rawD, rawW, rawR uint8) bool {
		n := 20 + int(seed%17+17)%17
		g, err := graph.GenerateER(n, 0.12, seed)
		if err != nil {
			return false
		}
		p, d, w := DHTLambda(0.1+float64(rawL%8)/10), 1+int(rawD%8), 1+int(rawW%9)
		be := regimeEngine(t, g, p, d, w, regimes[int(rawR)%len(regimes)])
		return sameColumns(be, refEngine(t, g, p, d), FirstHit, batchTargets(g, w, int(seed%13)), d) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDuplicateTargets: the same target may occupy several columns
// (nothing in the API forbids it); each column must still match its
// reference walk.
func TestBatchDuplicateTargets(t *testing.T) {
	g := sparseTestGraphs(t)[0]
	be := mustBatchEngine(t, g, DHTLambda(0.2), 8, 4)
	if msg := sameColumns(be, refEngine(t, g, DHTLambda(0.2), 8), FirstHit, []graph.NodeID{3, 3, 7, 3}, 4); msg != "" {
		t.Fatal(msg)
	}
}

// TestBatchPoolCheckout covers Get/GetBatch/Put reuse and the pool-entry
// validation: Get hands out width 1, GetBatch at least DefaultBatchWidth, and
// engines for the wrong graph — checked in, or planted behind Put's back —
// are dropped, not handed back out.
func TestBatchPoolCheckout(t *testing.T) {
	gs := sparseTestGraphs(t)
	pl, err := NewEnginePool(gs[0], DHTLambda(0.2), 4)
	if err != nil {
		t.Fatal(err)
	}
	for w, get := range map[int]func() *BatchEngine{1: pl.Get, DefaultBatchWidth: pl.GetBatch} {
		be := get()
		if be.G != gs[0] || be.W != w {
			t.Fatalf("pool handed out an engine for the wrong config: G ok=%v W=%d, want %d", be.G == gs[0], be.W, w)
		}
		pl.Put(be)
	}

	foreign := mustBatchEngine(t, gs[1], DHTLambda(0.2), 4, 1)
	pl.Put(foreign)
	pl.bpool.Put(mustBatchEngine(t, gs[1], DHTLambda(0.2), 4, DefaultBatchWidth))
	for i := 0; i < 4; i++ {
		for _, got := range []*BatchEngine{pl.Get(), pl.GetBatch()} {
			if got.G != gs[0] || len(got.cur) != gs[0].NumNodes()*got.W {
				t.Fatal("pool handed out an engine with scratch sized to a different graph")
			}
			defer pl.Put(got)
		}
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
