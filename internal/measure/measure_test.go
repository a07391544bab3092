package measure_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/ppr"
	"repro/internal/service"
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

// TestPPREvaluator pins the ppr kernel to the power iteration through what
// it serves: its default parameterization and walk kind, run on the engine
// the join executors use.
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
	e, err := dht.NewBatchEngine(g, p, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []graph.NodeID{2, 33} {
		col, err := ppr.PowerIteration(g, 0.5, src, d)
		if err != nil {
			t.Fatal(err)
		}
		for v := range col {
			walk := e.ForwardScore(kern.Walk, src, graph.NodeID(v), d)
			if math.Abs(col[v]-walk) > 1e-12 {
				t.Fatalf("ppr(%d,%d): power iteration says %v, served walk says %v", src, v, col[v], walk)
			}
		}
	}
}

// TestSimRankEvaluatorMatchesMatrix: the simrank kernel declares its
// certified-ε contract, and a served Score reads the fixed-point matrix.
func TestSimRankEvaluatorMatchesMatrix(t *testing.T) {
	g := testGraph(t, 17)
	kern, err := measure.Lookup("simrank")
	if err != nil {
		t.Fatal(err)
	}
	if kern.Contract != measure.CertifiedEps || kern.WalkBased {
		t.Fatalf("simrank kernel = %+v, want a certified-eps matrix kernel", kern)
	}
	m, err := simrank.Compute(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.Ephemeral(g)
	for _, tgt := range []graph.NodeID{0, 1, 9, 40, 79} {
		got, err := svc.Score(context.Background(), "", 9, tgt, service.Query{MeasureName: "simrank"})
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Score(9, tgt); got != want {
			t.Fatalf("simrank Score (9,%d) = %v, matrix says %v", tgt, got, want)
		}
		if tgt == 9 && got != 1 {
			t.Fatalf("s(9,9) = %v, want 1", got)
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
	mustPanic("empty name", measure.Kernel{})
	mustPanic("duplicate", measure.Kernel{Name: "dht"})
}
