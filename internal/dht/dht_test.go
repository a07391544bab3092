package dht

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// mustEngine is a width-1 engine: the one a lone walk runs on.
func mustEngine(t testing.TB, g *graph.Graph, p Params, d int) *BatchEngine {
	t.Helper()
	return mustBatchEngine(t, g, p, d, 1)
}

// column is the backward score column h_steps(·, q) of a lone walk on e,
// copied out of the engine-owned buffer.
func column(e *BatchEngine, kind Kind, q graph.NodeID, steps int) []float64 {
	return slices.Clone(e.BackWalkScoresBatch(kind, []graph.NodeID{q}, steps)[0])
}

// hitProbs is the per-step first-hit probabilities P_1..P_steps(p, q) of a
// lone forward walk on e.
func hitProbs(e *BatchEngine, p, q graph.NodeID, steps int) []float64 {
	return slices.Clone(e.ForwardProbsBatch(FirstHit, []graph.NodeID{p}, []graph.NodeID{q}, steps)[0])
}

// twoNodeGraph: 0 ↔ 1, so P_i(0,1) = 1 at i=1 and 0 later.
func twoNodeGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2, false)
	b.AddEdge(0, 1, 1)
	return b.Build()
}

// pathGraph returns the path 0-1-2-…-(n-1), undirected unit weights.
func pathGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, false)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	return b.Build()
}

func TestParamsTableII(t *testing.T) {
	e := DHTE()
	if e.Alpha != math.E || e.Beta != 0 || math.Abs(e.Lambda-1/math.E) > 1e-15 {
		t.Fatalf("DHTe params wrong: %+v", e)
	}
	l := DHTLambda(0.2)
	if math.Abs(l.Alpha-1.25) > 1e-12 || math.Abs(l.Beta+1.25) > 1e-12 || l.Lambda != 0.2 {
		t.Fatalf("DHTλ params wrong: %+v", l)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Alpha: 1, Beta: 0, Lambda: 0},
		{Alpha: 1, Beta: 0, Lambda: 1},
		{Alpha: 1, Beta: 0, Lambda: -0.5},
		{Alpha: 0, Beta: 0, Lambda: 0.5},
		{Alpha: math.NaN(), Beta: 0, Lambda: 0.5},
		{Alpha: 1, Beta: math.Inf(1), Lambda: 0.5},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	if err := DHTLambda(0.2).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

// TestStepsForEpsilonPaperDefault verifies the paper's §VII-A claim: with
// DHTλ, λ=0.2 and ε=1e-6, Lemma 1 gives d = 8.
func TestStepsForEpsilonPaperDefault(t *testing.T) {
	p := DHTLambda(0.2)
	if d := p.StepsForEpsilon(1e-6); d != 8 {
		t.Fatalf("StepsForEpsilon(1e-6) = %d, want 8", d)
	}
}

func TestStepsForEpsilonMonotone(t *testing.T) {
	p := DHTLambda(0.5)
	prev := 0
	for _, eps := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		d := p.StepsForEpsilon(eps)
		if d < prev {
			t.Fatalf("d not monotone in 1/ε: eps=%g d=%d prev=%d", eps, d, prev)
		}
		prev = d
	}
	// The bound must actually hold: X⁺_d = α Σ_{i>d} λ^i ≤ ε.
	for _, eps := range []float64{1e-3, 1e-6} {
		d := p.StepsForEpsilon(eps)
		if tail := p.XBound(d); tail > eps+1e-15 {
			t.Fatalf("eps=%g d=%d leaves tail %g > eps", eps, d, tail)
		}
	}
}

func TestScoreFolding(t *testing.T) {
	p := Params{Alpha: 2, Beta: -1, Lambda: 0.5}
	// h = 2*(0.5*0.25 + 0.25*0.5) - 1 = 2*0.25 - 1 = -0.5
	got := p.Score([]float64{0.25, 0.5})
	if math.Abs(got+0.5) > 1e-12 {
		t.Fatalf("Score = %v, want -0.5", got)
	}
	if p.Score(nil) != p.Beta {
		t.Fatal("empty probs should give beta")
	}
}

func TestXBoundClosedForm(t *testing.T) {
	p := DHTLambda(0.3)
	// X⁺_l = α λ^{l+1}/(1-λ); check against the series numerically.
	for l := 0; l < 6; l++ {
		var series float64
		pow := math.Pow(p.Lambda, float64(l))
		for i := l + 1; i < 200; i++ {
			pow *= p.Lambda
			series += pow
		}
		series *= p.Alpha
		if math.Abs(p.XBound(l)-series) > 1e-12 {
			t.Fatalf("XBound(%d) = %v, series = %v", l, p.XBound(l), series)
		}
	}
}

func TestForwardHitProbsTwoNode(t *testing.T) {
	g := twoNodeGraph(t)
	e := mustEngine(t, g, DHTLambda(0.2), 4)
	probs := hitProbs(e, 0, 1, 4)
	want := []float64{1, 0, 0, 0}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("P_%d = %v, want %v", i+1, probs[i], want[i])
		}
	}
	// h_d(0,1) = α λ + β; for DHTλ(0.2): 1.25*0.2 - 1.25 = -1.0.
	if s := e.ForwardScore(FirstHit, 0, 1, 4); math.Abs(s+1.0) > 1e-12 {
		t.Fatalf("score = %v, want -1", s)
	}
}

func TestForwardSelfPairIsZero(t *testing.T) {
	g := twoNodeGraph(t)
	e := mustEngine(t, g, DHTLambda(0.2), 4)
	if s := e.ForwardScore(FirstHit, 0, 0, 4); s != 0 || e.Walks != 0 {
		t.Fatalf("h(v,v) = %v after %d walks, want 0 without walking", s, e.Walks)
	}
	if probs := hitProbs(e, 0, 0, 4); !slices.Equal(probs, make([]float64, 4)) {
		t.Fatalf("first-hit probabilities of a self pair: %v, want zeros", probs)
	}
}

// TestPathFirstHitProbs checks hand-computed first-hit probabilities on the
// path 0-1-2: from node 0 to node 2, the walk must go 0→1→2 possibly
// bouncing 0→1→0→1→2 etc. P_2 = 1/2, P_4 = 1/4, P_6 = 1/8 (odd steps 0).
func TestPathFirstHitProbs(t *testing.T) {
	g := pathGraph(t, 3)
	e := mustEngine(t, g, DHTLambda(0.5), 6)
	probs := hitProbs(e, 0, 2, 6)
	want := []float64{0, 0.5, 0, 0.25, 0, 0.125}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("P_%d = %v, want %v (all: %v)", i+1, probs[i], want[i], probs)
		}
	}
}

func TestBackWalkMatchesForward(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{15, 15}, PIn: 0.3, POut: 0.1, Seed: 3, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{DHTLambda(0.2), DHTLambda(0.7), DHTE()} {
		e := mustEngine(t, g, p, 8)
		for _, q := range []graph.NodeID{0, 7, 20} {
			scores := column(e, FirstHit, q, 8)
			for _, u := range []graph.NodeID{1, 5, 16, 29} {
				if u == q {
					continue
				}
				fwd := e.ForwardScore(FirstHit, u, q, 8)
				if math.Abs(fwd-scores[u]) > 1e-10 {
					t.Fatalf("params %v: h_8(%d,%d): forward %v vs backward %v", p, u, q, fwd, scores[u])
				}
			}
			if scores[q] != 0 {
				t.Fatalf("backwalk self score = %v, want 0", scores[q])
			}
		}
	}
}

func TestBackWalkAgainstExactSolver(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{10, 10}, PIn: 0.4, POut: 0.15, Seed: 9, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DHTLambda(0.2)
	d := p.StepsForEpsilon(1e-10) // deep truncation ≈ exact
	e := mustEngine(t, g, p, d)
	for _, q := range []graph.NodeID{0, 13} {
		exact, err := ExactColumn(g, p, q)
		if err != nil {
			t.Fatalf("ExactColumn: %v", err)
		}
		scores := column(e, FirstHit, q, d)
		for u := range scores {
			if math.Abs(scores[u]-exact[u]) > 1e-8 {
				t.Fatalf("node %d → %d: truncated %v vs exact %v", u, q, scores[u], exact[u])
			}
		}
	}
}

func TestExactScoreTwoNode(t *testing.T) {
	g := twoNodeGraph(t)
	p := DHTLambda(0.2)
	s, err := ExactScore(g, p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Walk hits at step 1 with probability 1: h = αλ + β = -1.
	if math.Abs(s+1) > 1e-12 {
		t.Fatalf("exact = %v, want -1", s)
	}
}

func TestExactSolverErrors(t *testing.T) {
	g := twoNodeGraph(t)
	if _, err := ExactScore(g, Params{Alpha: 1, Beta: 0, Lambda: 2}, 0, 1); err == nil {
		t.Fatal("bad params accepted")
	}
	empty := graph.NewBuilder(0, true).Build()
	if _, err := ExactColumn(empty, DHTLambda(0.5), 0); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestReachProbsBoundFirstHits(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{12, 12}, PIn: 0.35, POut: 0.1, Seed: 21, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DHTLambda(0.4)
	d := 8
	e := mustEngine(t, g, p, d)
	seeds := []graph.NodeID{0, 1, 2}
	targets := []graph.NodeID{15, 20}
	reach := e.reachProbsBatch([][]graph.NodeID{seeds}, [][]graph.NodeID{targets}, d, nil)[0]
	// Lemmas 3–4: P_i(p,q) ≤ S_i(p,q) ≤ Σ_p S_i(p,q).
	for ti, q := range targets {
		for _, s := range seeds {
			probs := hitProbs(e, s, q, d)
			for i := 0; i < d; i++ {
				if probs[i] > reach[i][ti]+1e-12 {
					t.Fatalf("P_%d(%d,%d)=%v exceeds summed reach %v", i+1, s, q, probs[i], reach[i][ti])
				}
			}
		}
	}
}

// TestYBoundTheorem1 checks the central inequality: h_d ≤ h_l + Y⁺ₗ and
// Y⁺ₗ ≤ X⁺ₗ (Lemma 5), for all l, on a random graph.
func TestYBoundTheorem1(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{14, 14}, PIn: 0.3, POut: 0.1, Seed: 33, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := DHTLambda(0.6)
	d := 8
	e := mustEngine(t, g, p, d)
	seeds := []graph.NodeID{0, 1, 2, 3}
	targets := []graph.NodeID{14, 20, 27}
	yt := NewYBoundTables(e, [][]graph.NodeID{seeds}, [][]graph.NodeID{targets})[0]
	for _, q := range targets {
		full := column(e, FirstHit, q, d)
		for l := 0; l <= d; l++ {
			y := yt.Bound(q, l)
			x := p.XBound(l)
			if l < d && y > x+1e-12 {
				t.Fatalf("Lemma 5 violated: Y⁺_%d(%d)=%v > X⁺=%v", l, q, y, x)
			}
			if l == 0 {
				// h_0 = β for p≠q; check h_d ≤ β + Y⁺_0.
				for _, s := range seeds {
					if s == q {
						continue
					}
					if full[s] > p.Beta+y+1e-10 {
						t.Fatalf("Theorem 1 violated at l=0: h_d(%d,%d)=%v > β+Y=%v", s, q, full[s], p.Beta+y)
					}
				}
				continue
			}
			part := column(e, FirstHit, q, l)
			for _, s := range seeds {
				if s == q {
					continue
				}
				if full[s] > part[s]+y+1e-10 {
					t.Fatalf("Theorem 1 violated: h_d(%d,%d)=%v > h_%d+Y⁺=%v", s, q, full[s], l, part[s]+y)
				}
			}
		}
	}
}

// Property: h_d is monotone non-decreasing in d, and h_l + X⁺ₗ is an upper
// bound on h_d for random graphs and parameters.
func TestTruncationMonotoneProperty(t *testing.T) {
	f := func(seed int64, rawL uint8) bool {
		g, err := graph.GenerateER(25, 0.15, seed)
		if err != nil {
			return false
		}
		lambda := 0.1 + float64(rawL%8)/10
		p := DHTLambda(lambda)
		d := 8
		e, err := NewBatchEngine(g, p, d, 1)
		if err != nil {
			return false
		}
		u, q := graph.NodeID(int(seed%25+25)%25), graph.NodeID(int((seed/7)%25+25)%25)
		if u == q {
			q = (q + 1) % 25
		}
		prev := math.Inf(-1)
		for l := 1; l <= d; l++ {
			hl := e.ForwardScore(FirstHit, u, q, l)
			if hl < prev-1e-12 {
				return false // not monotone
			}
			prev = hl
		}
		hd := prev
		for l := 1; l < d; l++ {
			if hd > e.ForwardScore(FirstHit, u, q, l)+p.XBound(l)+1e-10 {
				return false // X bound violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	g := twoNodeGraph(t)
	if _, err := NewBatchEngine(g, DHTLambda(0.2), 0, 1); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, err := NewBatchEngine(g, Params{Alpha: 0, Beta: 0, Lambda: 0.5}, 4, 1); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	if be := mustBatchEngine(t, g, DHTLambda(0.2), 4, 0); be.W != DefaultBatchWidth {
		t.Fatalf("width 0 built an engine of width %d, want the default %d", be.W, DefaultBatchWidth)
	}
}

func TestEngineCounters(t *testing.T) {
	g := pathGraph(t, 4)
	e := mustEngine(t, g, DHTLambda(0.2), 4)
	// A generous threshold keeps every step on the sparse path (the default
	// budget on a 4-node graph is only a couple of edges): no dense sweeps,
	// only frontier edges.
	e.DenseThreshold = 10
	e.ForwardScore(FirstHit, 0, 3, 4)
	if e.Walks != 1 || e.EdgeSweeps != 0 || e.SparseSteps != 4 || e.FrontierEdges == 0 {
		t.Fatalf("counters after forward: walks=%d sweeps=%d sparse=%d frontier=%d",
			e.Walks, e.EdgeSweeps, e.SparseSteps, e.FrontierEdges)
	}
	e.BackWalkScoresBatch(FirstHit, []graph.NodeID{3}, 2)
	if e.Walks != 2 || e.EdgeSweeps != 0 || e.SparseSteps != 6 {
		t.Fatalf("counters after backward: walks=%d sweeps=%d sparse=%d", e.Walks, e.EdgeSweeps, e.SparseSteps)
	}
}

// TestEngineCountersForceDense pins the dense cost model: one full sweep per
// step, and nothing counted as frontier work.
func TestEngineCountersForceDense(t *testing.T) {
	g := pathGraph(t, 4)
	e := mustEngine(t, g, DHTLambda(0.2), 4)
	e.ForceDense = true
	e.ForwardScore(FirstHit, 0, 3, 4)
	if e.Walks != 1 || e.EdgeSweeps != 4 || e.SparseSteps != 0 {
		t.Fatalf("counters after forward: walks=%d sweeps=%d sparse=%d", e.Walks, e.EdgeSweeps, e.SparseSteps)
	}
	e.BackWalkScoresBatch(FirstHit, []graph.NodeID{3}, 2)
	if e.Walks != 2 || e.EdgeSweeps != 6 || e.FrontierEdges != 0 {
		t.Fatalf("counters after backward: walks=%d sweeps=%d frontier=%d", e.Walks, e.EdgeSweeps, e.FrontierEdges)
	}
}

// TestEngineSinkAggregates checks the atomic counter sink shared by
// concurrent engines: engine-local deltas must be mirrored into the shared
// Counters.
func TestEngineSinkAggregates(t *testing.T) {
	g := pathGraph(t, 4)
	e := mustEngine(t, g, DHTLambda(0.2), 4)
	var c Counters
	e.Sink = &c
	e.ForwardScore(FirstHit, 0, 3, 4)
	e.BackWalkScoresBatch(FirstHit, []graph.NodeID{3}, 2)
	snap := c.Snapshot()
	if snap.Walks != 2 {
		t.Fatalf("sink walks = %d, want 2", snap.Walks)
	}
	if snap.EdgeSweeps != e.EdgeSweeps || snap.FrontierEdges != e.FrontierEdges {
		t.Fatalf("sink %+v does not mirror engine (sweeps=%d frontier=%d)", snap, e.EdgeSweeps, e.FrontierEdges)
	}
	c.Reset()
	if s := c.Snapshot(); s != (Counters{}) {
		t.Fatalf("after Reset: %+v", s)
	}
}

func TestUnreachableScoreIsBeta(t *testing.T) {
	// Directed edge 0→1 only; node 1 cannot reach node 0.
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	p := DHTLambda(0.2)
	e := mustEngine(t, g, p, 6)
	if s := e.ForwardScore(FirstHit, 1, 0, 6); s != p.Beta {
		t.Fatalf("unreachable score = %v, want β=%v", s, p.Beta)
	}
}

func TestSinkAbsorbsWalk(t *testing.T) {
	// 0→1→2, 2 is a sink. Walk from 0 to 2 hits at step 2 exactly.
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	p := DHTLambda(0.5)
	e := mustEngine(t, g, p, 5)
	probs := hitProbs(e, 0, 2, 5)
	want := []float64{0, 1, 0, 0, 0}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("P_%d = %v, want %v", i+1, probs[i], want[i])
		}
	}
}
