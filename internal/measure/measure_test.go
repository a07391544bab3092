package measure_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/ppr"
	"repro/internal/simrank"
)

// testGraph builds a modest directed community graph every kernel can
// evaluate (well under the SimRank dense cap).
func testGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, _, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes:      []int{40, 40},
		PIn:        0.12,
		POut:       0.02,
		Directed:   true,
		MaxWeight:  3,
		Seed:       seed,
		MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLookupDefaultsToDHT(t *testing.T) {
	kern, err := measure.Lookup("")
	if err != nil {
		t.Fatal(err)
	}
	if kern.Name != "dht" {
		t.Fatalf("Lookup(\"\") resolved %q, want dht", kern.Name)
	}
	for _, name := range []string{"dht", "reach", "ppr", "simrank"} {
		if _, err := measure.Lookup(name); err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := measure.Lookup("katz")
	if !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("unknown measure error %v is not ErrUnknownMeasure", err)
	}
	// The message must teach the valid spellings.
	for _, name := range measure.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered measure %q", err, name)
		}
	}
}

// TestWalkEvaluatorsMatchEngine pins the walk kernels to the exact engine
// fold the join executors run: same float64, bit for bit.
func TestWalkEvaluatorsMatchEngine(t *testing.T) {
	g := testGraph(t, 7)
	p := dht.DHTLambda(0.2)
	const d = 6
	e, err := dht.NewBatchEngine(g, p, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	targets := []graph.NodeID{0, 3, 17, 42, 79}
	dst := make([]float64, len(targets))
	for _, tc := range []struct {
		name string
		kind dht.Kind
	}{{"dht", dht.FirstHit}, {"reach", dht.Reach}} {
		kern, err := measure.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := kern.NewEvaluator(g, p, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []graph.NodeID{1, 25, 60} {
			for l := 1; l <= d; l++ {
				if err := ev.ScoresInto(src, targets, l, dst); err != nil {
					t.Fatal(err)
				}
				for i, tgt := range targets {
					want := e.ForwardScore(tc.kind, src, tgt, l)
					if dst[i] != want {
						t.Fatalf("%s (%d,%d)@%d = %v, engine says %v", tc.name, src, tgt, l, dst[i], want)
					}
				}
			}
		}
	}
}

// TestPPREvaluator pins the ppr kernel three ways: against the power
// iteration it wraps, against the reach walk under PPR params (the identity
// the join executors rely on), and its default parameterization.
func TestPPREvaluator(t *testing.T) {
	g := testGraph(t, 11)
	kern, err := measure.Lookup("ppr")
	if err != nil {
		t.Fatal(err)
	}
	p := kern.ResolveParams(dht.Params{})
	if p != dht.PPR(0.5) {
		t.Fatalf("ppr default params = %+v, want dht.PPR(0.5)", p)
	}
	const d = 8
	ev, err := kern.NewEvaluator(g, p, d)
	if err != nil {
		t.Fatal(err)
	}
	e, err := dht.NewBatchEngine(g, p, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]graph.NodeID, g.NumNodes())
	for i := range targets {
		targets[i] = graph.NodeID(i)
	}
	dst := make([]float64, len(targets))
	for _, src := range []graph.NodeID{2, 33} {
		col, err := ppr.PowerIteration(g, 0.5, src, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.ScoresInto(src, targets, d, dst); err != nil {
			t.Fatal(err)
		}
		for v := range dst {
			if dst[v] != col[v] {
				t.Fatalf("evaluator(%d,%d) = %v, power iteration says %v", src, v, dst[v], col[v])
			}
			walk := e.ForwardScore(dht.Reach, src, graph.NodeID(v), d)
			if math.Abs(dst[v]-walk) > 1e-12 {
				t.Fatalf("evaluator(%d,%d) = %v, reach walk says %v", src, v, dst[v], walk)
			}
		}
	}
}

func TestSimRankEvaluatorMatchesMatrix(t *testing.T) {
	g := testGraph(t, 17)
	kern, err := measure.Lookup("simrank")
	if err != nil {
		t.Fatal(err)
	}
	if kern.Contract != measure.CertifiedEps {
		t.Fatalf("simrank contract = %v, want certified-eps", kern.Contract)
	}
	if kern.Eps == nil || kern.Eps(dht.Params{}, 0) <= 0 {
		t.Fatal("simrank kernel must declare a positive ε")
	}
	ev, err := kern.NewEvaluator(g, dht.Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := simrank.Compute(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	targets := []graph.NodeID{0, 1, 9, 40, 79}
	dst := make([]float64, len(targets))
	if err := ev.ScoresInto(9, targets, 0, dst); err != nil {
		t.Fatal(err)
	}
	for i, tgt := range targets {
		if want := m.Score(9, tgt); dst[i] != want {
			t.Fatalf("simrank evaluator (9,%d) = %v, matrix says %v", tgt, dst[i], want)
		}
	}
	if dst[2] != 1 {
		t.Fatalf("s(9,9) = %v, want 1", dst[2])
	}
}

// TestBoundsMonotone enforces the one analytic property the rank-join stack
// requires of every kernel: Bound(p, l) is non-negative and non-increasing
// in l.
func TestBoundsMonotone(t *testing.T) {
	for _, kern := range measure.Kernels() {
		p := kern.ResolveParams(dht.Params{})
		if p == (dht.Params{}) {
			p = dht.DHTLambda(0.2)
		}
		prev := math.Inf(1)
		for l := 0; l <= 20; l++ {
			b := kern.Bound(p, l)
			if b < 0 {
				t.Fatalf("%s: Bound(%d) = %v < 0", kern.Name, l, b)
			}
			if b > prev {
				t.Fatalf("%s: Bound(%d) = %v > Bound(%d) = %v (not monotone)", kern.Name, l, b, l-1, prev)
			}
			prev = b
		}
		if first := kern.Bound(p, 0); prev >= first && first > 0 {
			t.Fatalf("%s: bound never decays over 20 levels (%v → %v)", kern.Name, first, prev)
		}
	}
}

func TestResolveParamsCallerWins(t *testing.T) {
	kern, err := measure.Lookup("ppr")
	if err != nil {
		t.Fatal(err)
	}
	custom := dht.PPR(0.85)
	if got := kern.ResolveParams(custom); got != custom {
		t.Fatalf("caller params overridden: %+v", got)
	}
	dhtKern, err := measure.Lookup("dht")
	if err != nil {
		t.Fatal(err)
	}
	if got := dhtKern.ResolveParams(dht.Params{}); got != (dht.Params{}) {
		t.Fatalf("dht kernel must leave zero params for the facade default, got %+v", got)
	}
}

func TestDescribe(t *testing.T) {
	infos := measure.Describe()
	if len(infos) < 4 {
		t.Fatalf("Describe returned %d kernels, want at least 4", len(infos))
	}
	byName := map[string]measure.Info{}
	for i, info := range infos {
		if i > 0 && infos[i-1].Name >= info.Name {
			t.Fatalf("Describe not sorted at %d: %q before %q", i, infos[i-1].Name, info.Name)
		}
		if info.Doc == "" {
			t.Fatalf("%s has no doc line", info.Name)
		}
		byName[info.Name] = info
	}
	if f := byName["ppr"].Family; f != "walk" {
		t.Fatalf("ppr family = %q, want walk", f)
	}
	if f := byName["simrank"].Family; f != "matrix" {
		t.Fatalf("simrank family = %q, want matrix", f)
	}
	if w := byName["ppr"].Walk; w != dht.Reach.String() {
		t.Fatalf("ppr walk = %q, want %q", w, dht.Reach)
	}
}

// TestEvaluatorDepthValidation: walk evaluators reject depths outside the
// engine's [1, d] window instead of silently clamping.
func TestEvaluatorDepthValidation(t *testing.T) {
	g := testGraph(t, 19)
	kern, err := measure.Lookup("dht")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := kern.NewEvaluator(g, dht.DHTLambda(0.2), 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 1)
	if err := ev.ScoresInto(0, []graph.NodeID{1}, 5, dst); err == nil {
		t.Fatal("depth past d accepted")
	}
	if err := ev.ScoresInto(0, []graph.NodeID{1}, 0, dst); err == nil {
		t.Fatal("depth 0 accepted")
	}
	if err := ev.ScoresInto(0, []graph.NodeID{1, 2}, 2, dst); err == nil {
		t.Fatal("mismatched dst length accepted")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, k measure.Kernel) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		measure.Register(k)
	}
	ev := func(*graph.Graph, dht.Params, int) (measure.Evaluator, error) { return nil, nil }
	bound := func(dht.Params, int) float64 { return 0 }
	mustPanic("empty name", measure.Kernel{NewEvaluator: ev, Bound: bound})
	mustPanic("duplicate", measure.Kernel{Name: "dht", NewEvaluator: ev, Bound: bound})
	mustPanic("no evaluator", measure.Kernel{Name: "m-test-1", Bound: bound})
	mustPanic("no bound", measure.Kernel{Name: "m-test-2", NewEvaluator: ev})
	mustPanic("certified without eps", measure.Kernel{
		Name: "m-test-3", Contract: measure.CertifiedEps, NewEvaluator: ev, Bound: bound,
	})
}
