package plan_test

// The external test package imports the operator packages for their
// registration side effects, so these tests see the real registry.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/plan"

	_ "repro/internal/core"  // registers AP / PJ-i / SR-AP
	_ "repro/internal/join2" // registers the served 2-way joiners
)

// testWorkload is a mid-sized 2-way workload over a dense-ish graph.
func testWorkload(k int) plan.Workload {
	return plan.Workload{
		Stats: graph.Stats{Nodes: 2400, Arcs: 38000, MeanOutDeg: 15.8},
		P:     100, Q: 100, K: k, M: 50, D: 8,
	}
}

func TestRegistryExecutors(t *testing.T) {
	want2 := []string{"B-BJ", "B-IDJ-X", "B-IDJ-Y", "SR-SCAN"}
	got2 := plan.Executors(plan.TwoWay)
	if len(got2) != len(want2) {
		t.Fatalf("2-way executors: %d, want %d", len(got2), len(want2))
	}
	for i, d := range got2 {
		if d.Name != want2[i] {
			t.Fatalf("2-way executor %d = %q, want %q", i, d.Name, want2[i])
		}
		if d.New == nil {
			t.Fatalf("%s registered without factory", d.Name)
		}
	}
	wantN := []string{"AP", "PJ-i", "SR-AP"}
	gotN := plan.Executors(plan.NWay)
	if len(gotN) != len(wantN) {
		t.Fatalf("n-way executors: %d, want %d", len(gotN), len(wantN))
	}
	for i, d := range gotN {
		if d.Name != wantN[i] {
			t.Fatalf("n-way executor %d = %q, want %q", i, d.Name, wantN[i])
		}
	}
}

func TestDecideSelectivityFlip(t *testing.T) {
	low, err := plan.Decide(plan.TwoWay, testWorkload(50), "")
	if err != nil {
		t.Fatal(err)
	}
	if low.Algorithm != "B-IDJ-Y" {
		t.Fatalf("k=50 pick = %s, want B-IDJ-Y", low.Algorithm)
	}
	full, err := plan.Decide(plan.TwoWay, testWorkload(100*100), "")
	if err != nil {
		t.Fatal(err)
	}
	if full.Algorithm != "B-BJ" {
		t.Fatalf("k=|P||Q| pick = %s, want B-BJ", full.Algorithm)
	}
}

func estCost(ests []plan.Estimate, name string) float64 {
	for _, e := range ests {
		if e.Algorithm == name {
			return e.Cost
		}
	}
	return -1
}

func TestDecideNWay(t *testing.T) {
	w := plan.Workload{
		Stats:      graph.Stats{Nodes: 2400, Arcs: 38000, MeanOutDeg: 15.8},
		SetSizes:   []int{60, 60, 60},
		QueryEdges: [][2]int{{0, 1}, {1, 2}, {2, 0}},
		K:          10, M: 50, D: 8,
	}
	pl, err := plan.Decide(plan.NWay, w, "")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "PJ-i" {
		t.Fatalf("n-way pick = %s, want PJ-i", pl.Algorithm)
	}
	// The modeled ordering of the paper's Figure 7: PJ-i below AP, even
	// with AP's edges joined backward.
	if estCost(pl.Estimates, "PJ-i") >= estCost(pl.Estimates, "AP") {
		t.Fatal("PJ-i not priced below AP")
	}
}

func TestDecideForced(t *testing.T) {
	pl, err := plan.Decide(plan.TwoWay, testWorkload(50), "B-IDJ-X")
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Forced || pl.Algorithm != "B-IDJ-X" {
		t.Fatalf("forced plan = %+v", pl)
	}
	if _, err := plan.Decide(plan.TwoWay, testWorkload(50), "nope"); !errors.Is(err, plan.ErrUnknownExecutor) {
		t.Fatalf("unknown forced: %v", err)
	}
	if _, err := plan.Decide(plan.TwoWay, testWorkload(50), "PJ-i"); !errors.Is(err, plan.ErrWrongClass) {
		t.Fatalf("wrong-class forced: %v", err)
	}
	if err := plan.ValidateForced(plan.NWay, "B-BJ", ""); !errors.Is(err, plan.ErrWrongClass) {
		t.Fatalf("ValidateForced wrong class: %v", err)
	}
	if err := plan.ValidateForced(plan.NWay, "AP", ""); err != nil {
		t.Fatalf("ValidateForced valid: %v", err)
	}
	// The reproduction-only operators are not served: forcing one is an
	// unknown name.
	for _, name := range []string{"F-BJ", "F-IDJ"} {
		if _, err := plan.Decide(plan.TwoWay, testWorkload(50), name); !errors.Is(err, plan.ErrUnknownExecutor) {
			t.Fatalf("forced %s: %v", name, err)
		}
	}
	for _, name := range []string{"NL", "PJ"} {
		if err := plan.ValidateForced(plan.NWay, name, ""); !errors.Is(err, plan.ErrUnknownExecutor) {
			t.Fatalf("ValidateForced %s: %v", name, err)
		}
	}
}

func TestDecideDeterminism(t *testing.T) {
	a, err := plan.Decide(plan.TwoWay, testWorkload(50), "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b, err := plan.Decide(plan.TwoWay, testWorkload(50), "")
		if err != nil {
			t.Fatal(err)
		}
		if b.Algorithm != a.Algorithm || len(b.Estimates) != len(a.Estimates) {
			t.Fatalf("run %d differs: %+v vs %+v", i, b, a)
		}
		for j := range a.Estimates {
			if b.Estimates[j] != a.Estimates[j] {
				t.Fatalf("run %d estimate %d differs", i, j)
			}
		}
	}
}

func TestWalkCostAnalytic(t *testing.T) {
	w := testWorkload(50)
	walk := w.WalkCost()
	if walk <= 0 {
		t.Fatalf("walk cost %v", walk)
	}
	// The frontier saturates at |E| per step, so D steps bound the walk.
	if maxW := float64(w.Stats.Arcs) * float64(w.D); walk > maxW {
		t.Fatalf("walk cost %v exceeds dense bound %v", walk, maxW)
	}
	// An empty-graph workload must not divide by zero or return nonsense.
	empty := plan.Workload{D: 4}
	if c := empty.WalkCost(); c < 1 {
		t.Fatalf("empty-graph walk cost %v", c)
	}
}

// TestDecideIgnoresWalkUnit pins the invariance that lets a plan be a pure
// function of the request: every 2-way cost has the form c·W + |P|·|Q|·
// PairCost with the same constant for all three walk joiners, so the walk
// unit W cannot change a pick, and the n-way picks keep their winner across
// units too. The sweep varies the graph (mean degree 1–300, 10–1e8 arcs) and the
// depth while the query stays fixed, and expects one pick per gated shape.
//
// Left out on purpose: configurations whose coefficients tie exactly (1×60
// at k = 20 splits B-BJ/B-IDJ-Y by float rounding), and degenerate n-way
// queries (a 1×60 n-way pair flips between AP and PJ-i with the unit). No
// workload sends either, and their time cost at a fixed unit is unmeasured.
func TestDecideIgnoresWalkUnit(t *testing.T) {
	nway := func(n int, edges ...[2]int) plan.Workload {
		return plan.Workload{SetSizes: slices.Repeat([]int{60}, n), QueryEdges: edges, K: 50, M: 50}
	}
	pair := func(k int) plan.Workload { return plan.Workload{P: 60, Q: 60, K: k, M: 50} }
	cases := []struct {
		name  string
		class plan.Class
		w     plan.Workload
		want  string
	}{
		{"pair k=1", plan.TwoWay, pair(1), "B-IDJ-Y"},
		{"pair k=20", plan.TwoWay, pair(20), "B-IDJ-Y"},
		{"pair k=50", plan.TwoWay, pair(50), "B-IDJ-Y"},
		{"pair k=3600", plan.TwoWay, pair(3600), "B-BJ"},
		{"chain-3", plan.NWay, nway(3, [2]int{0, 1}, [2]int{1, 2}), "PJ-i"},
		{"chain-4", plan.NWay, nway(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}), "PJ-i"},
		{"triangle", plan.NWay, nway(3, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}, [2]int{2, 1}, [2]int{0, 2}, [2]int{2, 0}), "PJ-i"},
		{"star-4", plan.NWay, nway(4, [2]int{1, 0}, [2]int{2, 0}, [2]int{3, 0}), "PJ-i"},
	}
	for _, c := range cases {
		for _, deg := range []float64{1, 1.5, 3, 10, 30, 100, 300} {
			for _, arcs := range []int{10, 1_000, 100_000, 10_000_000, 100_000_000} {
				for _, d := range []int{1, 8, 30} {
					w := c.w
					w.Stats = graph.Stats{Nodes: max(int(float64(arcs)/deg), 1), Arcs: arcs, MeanOutDeg: deg}
					w.D = d
					pl, err := plan.Decide(c.class, w, "")
					if err != nil {
						t.Fatal(err)
					}
					if pl.Algorithm != c.want {
						t.Fatalf("%s (deg %v, arcs %d, d %d, W %.4g): pick %s, want %s",
							c.name, deg, arcs, d, w.WalkCost(), pl.Algorithm, c.want)
					}
				}
			}
		}
	}
}

func TestPlanFormatAndFactory(t *testing.T) {
	pl, err := plan.Decide(plan.TwoWay, testWorkload(50), "")
	if err != nil {
		t.Fatal(err)
	}
	out := pl.Format()
	if out == "" || pl.Factory() == nil {
		t.Fatalf("Format=%q Factory=%v", out, pl.Factory())
	}
}

// TestDecideMeasureFiltering: the candidate table is measure-keyed — a walk
// workload never sees SimRank's dedicated executors and vice versa, and
// forcing across the boundary is an ErrWrongMeasure.
func TestDecideMeasureFiltering(t *testing.T) {
	walk, err := plan.Decide(plan.TwoWay, testWorkload(50), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, est := range walk.Estimates {
		if est.Algorithm == "SR-SCAN" {
			t.Fatal("walk plan priced SR-SCAN")
		}
	}

	w := testWorkload(50)
	w.Measure = "simrank"
	sr, err := plan.Decide(plan.TwoWay, w, "")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Algorithm != "SR-SCAN" {
		t.Fatalf("simrank 2-way plan picked %q, want SR-SCAN", sr.Algorithm)
	}
	if len(sr.Estimates) != 1 {
		t.Fatalf("simrank plan priced %d candidates, want 1", len(sr.Estimates))
	}

	wn := w
	wn.P, wn.Q = 0, 0
	wn.SetSizes = []int{100, 100, 100}
	wn.QueryEdges = [][2]int{{0, 1}, {1, 2}}
	srn, err := plan.Decide(plan.NWay, wn, "")
	if err != nil {
		t.Fatal(err)
	}
	if srn.Algorithm != "SR-AP" {
		t.Fatalf("simrank n-way plan picked %q, want SR-AP", srn.Algorithm)
	}

	if _, err := plan.Decide(plan.TwoWay, testWorkload(50), "SR-SCAN"); !errors.Is(err, plan.ErrWrongMeasure) {
		t.Fatalf("forcing SR-SCAN on a walk workload: %v, want ErrWrongMeasure", err)
	}
	if _, err := plan.Decide(plan.TwoWay, w, "B-IDJ-Y"); !errors.Is(err, plan.ErrWrongMeasure) {
		t.Fatalf("forcing B-IDJ-Y on a simrank workload: %v, want ErrWrongMeasure", err)
	}
	if err := plan.ValidateForced(plan.TwoWay, "SR-SCAN", "simrank"); err != nil {
		t.Fatalf("ValidateForced matching measure: %v", err)
	}
	if err := plan.ValidateForced(plan.TwoWay, "SR-SCAN", ""); !errors.Is(err, plan.ErrWrongMeasure) {
		t.Fatalf("ValidateForced wrong measure: %v", err)
	}
}
