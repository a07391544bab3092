package dht

import (
	"math"
	"testing"

	"repro/internal/graph"
)

func TestPPRParams(t *testing.T) {
	p := PPR(0.85)
	if math.Abs(p.Alpha-0.15) > 1e-12 || p.Beta != 0 || p.Lambda != 0.85 {
		t.Fatalf("PPR params = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if FirstHit.String() != "first-hit" || Reach.String() != "reach" {
		t.Fatal("kind names wrong")
	}
}

// TestReachForwardBackwardAgree mirrors the first-hit equivalence test for
// the reach measure.
func TestReachForwardBackwardAgree(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{15, 15}, PIn: 0.3, POut: 0.1, Seed: 6, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := PPR(0.5)
	e := mustEngine(t, g, p, 10)
	for _, q := range []graph.NodeID{0, 8, 22} {
		out := column(e, Reach, q, 10)
		for _, u := range []graph.NodeID{1, 5, 16, 29} {
			fwd := e.ForwardScore(Reach, u, q, 10)
			if math.Abs(fwd-out[u]) > 1e-10 {
				t.Fatalf("reach(%d,%d): forward %v vs backward %v", u, q, fwd, out[u])
			}
		}
	}
}

// TestReachAgainstExactSolver validates the truncated reach walk against the
// dense linear system.
func TestReachAgainstExactSolver(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{10, 10}, PIn: 0.4, POut: 0.15, Seed: 10, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := PPR(0.3)
	d := p.StepsForEpsilon(1e-10)
	e := mustEngine(t, g, p, d)
	for _, q := range []graph.NodeID{0, 13} {
		exact, err := ExactReachColumn(g, p, q)
		if err != nil {
			t.Fatal(err)
		}
		out := column(e, Reach, q, d)
		for u := range out {
			if math.Abs(out[u]-exact[u]) > 1e-8 {
				t.Fatalf("node %d → %d: truncated %v vs exact %v", u, q, out[u], exact[u])
			}
		}
	}
}

// TestReachDominatesFirstHit: S_i ≥ P_i pointwise, so with identical params
// the reach score is at least the first-hit score.
func TestReachDominatesFirstHit(t *testing.T) {
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{12, 12}, PIn: 0.35, POut: 0.1, Seed: 12, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Alpha: 1, Beta: 0, Lambda: 0.5}
	e := mustEngine(t, g, p, 8)
	for u := graph.NodeID(0); u < 10; u++ {
		for _, q := range []graph.NodeID{15, 20} {
			if u == q {
				continue
			}
			fh := e.ForwardScore(FirstHit, u, q, 8)
			rc := e.ForwardScore(Reach, u, q, 8)
			if rc < fh-1e-12 {
				t.Fatalf("reach(%d,%d)=%v < first-hit %v", u, q, rc, fh)
			}
		}
	}
}

// TestReachTwoNode: on 0 ↔ 1 the walk alternates, so S_i(0,1) = 1 for odd i
// and 0 for even i. With λ=0.5, α=1: score = Σ_{odd i ≤ d} 0.5^i.
func TestReachTwoNode(t *testing.T) {
	g := twoNodeGraph(t)
	p := Params{Alpha: 1, Beta: 0, Lambda: 0.5}
	e := mustEngine(t, g, p, 6)
	got := e.ForwardScore(Reach, 0, 1, 6)
	want := 0.5 + 0.125 + 0.03125
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("reach score = %v, want %v", got, want)
	}
}

func TestExactReachColumnErrors(t *testing.T) {
	g := twoNodeGraph(t)
	if _, err := ExactReachColumn(g, Params{Alpha: 1, Beta: 0, Lambda: 2}, 0); err == nil {
		t.Fatal("bad params accepted")
	}
	empty := graph.NewBuilder(0, true).Build()
	if _, err := ExactReachColumn(empty, PPR(0.5), 0); err == nil {
		t.Fatal("empty graph accepted")
	}
}
