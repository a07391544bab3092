package plan_test

// The external test package imports the operator packages for their
// registration side effects, so these tests see the real registry.

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/plan"

	_ "repro/internal/core"  // registers NL / AP / PJ / PJ-i
	_ "repro/internal/join2" // registers the five 2-way joiners
)

// testWorkload is a mid-sized 2-way workload over a dense-ish graph.
func testWorkload(k int) plan.Workload {
	return plan.Workload{
		Stats: graph.Stats{Nodes: 2400, Arcs: 38000, MeanOutDeg: 15.8},
		P:     100, Q: 100, K: k, M: 50, D: 8,
	}
}

func TestRegistryExecutors(t *testing.T) {
	want2 := []string{"B-BJ", "B-IDJ-X", "B-IDJ-Y", "F-BJ", "F-IDJ", "SR-SCAN"}
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
	wantN := []string{"AP", "NL", "PJ", "PJ-i", "SR-AP"}
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
	// Backward processing must always beat forward per the paper's analysis.
	for _, e := range low.Estimates {
		if e.Algorithm == "F-BJ" && e.Cost <= estCost(low.Estimates, "B-BJ") {
			t.Fatal("F-BJ priced at or below B-BJ")
		}
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
		QueryEdges: [][2]int{{0, 1}, {1, 2}},
		K:          10, M: 50, D: 8,
	}
	pl, err := plan.Decide(plan.NWay, w, "")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "PJ-i" {
		t.Fatalf("n-way pick = %s, want PJ-i", pl.Algorithm)
	}
	// The modeled ordering of the paper's Figure 7: PJ-i < PJ and AP < NL.
	if estCost(pl.Estimates, "PJ-i") >= estCost(pl.Estimates, "PJ") {
		t.Fatal("PJ-i not priced below PJ")
	}
	if estCost(pl.Estimates, "AP") >= estCost(pl.Estimates, "NL") {
		t.Fatal("AP not priced below NL")
	}
}

func TestDecideForced(t *testing.T) {
	pl, err := plan.Decide(plan.TwoWay, testWorkload(50), "F-IDJ")
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Forced || pl.Algorithm != "F-IDJ" {
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
	if err := plan.ValidateForced(plan.NWay, "PJ", ""); err != nil {
		t.Fatalf("ValidateForced valid: %v", err)
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

func TestCalibration(t *testing.T) {
	var c plan.Calibration
	if _, ok := c.EdgesPerWalk(); ok {
		t.Fatal("fresh calibration claims observations")
	}
	gen0 := c.Gen()
	c.Observe(dht.Counters{Walks: 10, FrontierEdges: 5000}, 38000)
	epw, ok := c.EdgesPerWalk()
	if !ok || epw != 500 {
		t.Fatalf("after first observe: epw=%v ok=%v, want 500", epw, ok)
	}
	if c.Gen() == gen0 {
		t.Fatal("first observation did not bump the generation")
	}
	// Dense sweeps convert via the graph's arc count.
	c.Observe(dht.Counters{Walks: 1, EdgeSweeps: 2}, 38000)
	if epw, _ = c.EdgesPerWalk(); epw <= 500 {
		t.Fatalf("sweep observation did not raise the average: %v", epw)
	}
	// A walk-free run is ignored.
	before, _ := c.EdgesPerWalk()
	c.Observe(dht.Counters{EdgeSweeps: 50}, 38000)
	if after, _ := c.EdgesPerWalk(); after != before {
		t.Fatal("walk-free observation changed the estimate")
	}
	// Steady-state identical observations stop bumping the generation.
	stable, _ := c.EdgesPerWalk()
	for i := 0; i < 5; i++ {
		c.Observe(dht.Counters{Walks: 100, FrontierEdges: int64(100 * stable)}, 38000)
	}
	gen := c.Gen()
	c.Observe(dht.Counters{Walks: 100, FrontierEdges: int64(100 * stable)}, 38000)
	if c.Gen() != gen {
		t.Fatal("steady-state observation bumped the generation")
	}
	// Calibrated workloads use the observed unit.
	w := testWorkload(50)
	w.Calib = &c
	if got, want := w.WalkCost(), mustEPW(t, &c); got != want {
		t.Fatalf("calibrated walk cost %v, want %v", got, want)
	}
}

func mustEPW(t *testing.T, c *plan.Calibration) float64 {
	t.Helper()
	epw, ok := c.EdgesPerWalk()
	if !ok {
		t.Fatal("no calibration data")
	}
	return epw
}

func TestCalibrationConcurrent(t *testing.T) {
	var c plan.Calibration
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Observe(dht.Counters{Walks: 10, FrontierEdges: 4000}, 38000)
				c.EdgesPerWalk()
				c.Gen()
			}
		}()
	}
	wg.Wait()
	if n := c.Samples(); n != 8*200 {
		t.Fatalf("samples = %d, want %d", n, 8*200)
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
