package measure_test

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/ppr"
)

// testGraph builds a modest directed community graph.
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
	for _, name := range []string{"dht", "reach", "ppr"} {
		if _, err := measure.Lookup(name); err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
	}
	if got := measure.Names(); !slices.Equal(got, []string{"dht", "ppr", "reach"}) {
		t.Fatalf("Names() = %v, want [dht ppr reach]", got)
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
			t.Fatalf("error %q does not list served measure %q", err, name)
		}
	}
	// A retired measure is unknown too, and its error says where it went.
	_, err = measure.Lookup("simrank")
	if !errors.Is(err, measure.ErrUnknownMeasure) || !strings.Contains(err.Error(), "removed") ||
		!strings.Contains(err.Error(), "ComputeSimRank") {
		t.Fatalf("Lookup(simrank) = %v, want ErrUnknownMeasure naming the removal", err)
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
	if len(infos) != 3 {
		t.Fatalf("Describe returned %d kernels, want 3", len(infos))
	}
	byName := map[string]measure.Info{}
	for i, info := range infos {
		if i > 0 && infos[i-1].Name >= info.Name {
			t.Fatalf("Describe not sorted at %d: %q before %q", i, infos[i-1].Name, info.Name)
		}
		if info.Doc == "" {
			t.Fatalf("%s has no doc line", info.Name)
		}
		if info.Family != "walk" || info.Contract != "exact" {
			t.Fatalf("%s: family %q, contract %v, want an exact walk kernel", info.Name, info.Family, info.Contract)
		}
		byName[info.Name] = info
	}
	if w := byName["ppr"].Walk; w != dht.Reach.String() {
		t.Fatalf("ppr walk = %q, want %q", w, dht.Reach)
	}
}

func TestRegisterPanics(t *testing.T) {
	// The served set is a table: its names must be non-empty, unique and
	// sorted, since Describe and the Lookup error list them in that order.
	names := measure.Names()
	if len(names) == 0 {
		t.Fatal("no served measures")
	}
	for i, name := range names {
		if name == "" {
			t.Fatalf("measure %d has an empty name", i)
		}
		if i > 0 && names[i-1] >= name {
			t.Fatalf("Names not sorted and unique at %d: %q before %q", i, names[i-1], name)
		}
	}
}
