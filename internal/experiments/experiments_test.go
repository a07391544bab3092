package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickEnv shares datasets across the tests in this package.
func quickEnv() *Env {
	cfg := Quick()
	return NewEnv(cfg)
}

func TestRegistryResolves(t *testing.T) {
	all := All()
	if len(all) < 18 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	for _, r := range all {
		got, err := ByID(r.ID)
		if err != nil || got.ID != r.ID {
			t.Fatalf("ByID(%q): %v", r.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id resolved")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	out := tab.Render()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := Table3(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Scores must be descending within each ranking column.
	prevTri, prevCh := 1e18, 1e18
	for _, row := range tab.Rows {
		tri, err1 := strconv.ParseFloat(row[2], 64)
		ch, err2 := strconv.ParseFloat(row[4], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable scores in row %v", row)
		}
		if tri > prevTri+1e-9 || ch > prevCh+1e-9 {
			t.Fatalf("scores not descending: %v", tab.Rows)
		}
		prevTri, prevCh = tri, ch
	}
}

func TestFig6aAUCAboveChance(t *testing.T) {
	tab, err := Fig6a(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		auc, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			t.Fatalf("bad AUC cell %q", row[len(row)-1])
		}
		if auc < 0.6 {
			t.Fatalf("%s AUC = %v, want well above chance", row[0], auc)
		}
	}
}

func TestFig6bSweep(t *testing.T) {
	tab, err := Fig6b(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 { // 9 λ values + DHTe
		t.Fatalf("rows = %d, want 10", len(tab.Rows))
	}
	if tab.Rows[9][0] != "DHTe" {
		t.Fatalf("last row = %v", tab.Rows[9])
	}
}

func TestTable4Shape(t *testing.T) {
	tab, err := Table4(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestEfficiencySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps in -short mode")
	}
	env := quickEnv()
	for _, run := range []struct {
		name string
		fn   func(*Env) (*Table, error)
		rows int
	}{
		{"fig7a", Fig7a, env.Cfg.MaxN - 1},
		{"fig7b", Fig7b, 5},
		{"fig7c", Fig7c, 4},
		{"fig7d", Fig7d, 6},
		{"fig8a", Fig8a, env.Cfg.MaxN - 1},
		{"fig8d", Fig8d, 6},
	} {
		tab, err := run.fn(env)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(tab.Rows) != run.rows {
			t.Fatalf("%s: rows = %d, want %d", run.name, len(tab.Rows), run.rows)
		}
		for _, row := range tab.Rows {
			for _, cell := range row {
				if strings.HasPrefix(cell, "error:") {
					t.Fatalf("%s: failed cell %q in %v", run.name, cell, row)
				}
			}
		}
	}
}

func TestTwoWaySweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps in -short mode")
	}
	env := quickEnv()
	for _, run := range []struct {
		name string
		fn   func(*Env) (*Table, error)
	}{
		{"fig9a", Fig9a},
		{"fig9b", Fig9b},
		{"fig9c", Fig9c},
		{"fig9d", Fig9d},
		{"fig10a", Fig10a},
		{"fig10b", Fig10b},
	} {
		tab, err := run.fn(env)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", run.name)
		}
		for _, row := range tab.Rows {
			for _, cell := range row {
				if strings.HasPrefix(cell, "error:") {
					t.Fatalf("%s: failed cell %q", run.name, cell)
				}
			}
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps in -short mode")
	}
	env := quickEnv()
	for _, fn := range []func(*Env) (*Table, error){AblationCornerBound, AblationIncremental, AblationSchedule, ExtensionSimRank} {
		tab, err := fn(env)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) < 2 {
			t.Fatalf("%s: rows = %d", tab.ID, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			for _, cell := range row {
				if strings.HasPrefix(cell, "error:") {
					t.Fatalf("%s: row %v holds an error cell", tab.ID, row)
				}
			}
			// SimRank stays a library path (fixed point + JoinLists): both
			// of its rows must reach the full k answers.
			if tab.ID == "ext-simrank" && row[2] != strconv.Itoa(env.Cfg.K) {
				t.Fatalf("%s: row %v reports %s answers, want %d", tab.ID, row, row[2], env.Cfg.K)
			}
		}
	}
}

// TestFig10bPruningShape verifies the paper's central Figure-10(b) claim on
// the synthetic DBLP: B-IDJ-Y prunes a large share of Q in the very first
// iterations, and never less than B-IDJ-X.
func TestFig10bPruningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps in -short mode")
	}
	tab, err := Fig10b(quickEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no iterations")
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	for _, row := range tab.Rows {
		x, y := parse(row[2]), parse(row[3])
		if y < x-1e-9 {
			t.Fatalf("iteration %s: Y pruned %.1f%% < X %.1f%%", row[0], y, x)
		}
	}
}
