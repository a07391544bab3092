package plan_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/plan"
)

var update = flag.Bool("update", false, "rewrite testdata/decide.golden from the current cost model")

// goldenCase is one workload of the golden grid with its query class.
type goldenCase struct {
	class plan.Class
	w     plan.Workload
}

// goldenWorkloads is the grid TestDecideGolden pins: two graph sizes and two
// mean degrees at d = 8, crossed with the 2-way set sizes and demands on
// either side of every pick flip, and the three n-way shapes the paper
// studies.
func goldenWorkloads() []goldenCase {
	var out []goldenCase
	shapes := []struct {
		n     int
		edges [][2]int
	}{
		{3, [][2]int{{0, 1}, {1, 2}}},                                 // chain
		{3, [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}}}, // triangle
		{4, [][2]int{{1, 0}, {2, 0}, {3, 0}}},                         // star
	}
	for _, nodes := range []int{1000, 25000} {
		for _, deg := range []float64{2, 8} {
			st := graph.Stats{Nodes: nodes, Arcs: int(float64(nodes) * deg), MeanOutDeg: deg}
			for _, p := range []int{1, 5, 60} {
				for _, q := range []int{1, 5, 16, 60} {
					for _, k := range []int{1, 5, 50, 500, 3600} {
						out = append(out, goldenCase{plan.TwoWay, plan.Workload{Stats: st, P: p, Q: q, K: k, M: 50, D: 8}})
					}
				}
			}
			for _, sh := range shapes {
				for _, size := range []int{5, 60} {
					sizes := slices.Repeat([]int{size}, sh.n)
					for _, k := range []int{5, 50} {
						for _, m := range []int{20, 50} {
							out = append(out, goldenCase{plan.NWay, plan.Workload{Stats: st, SetSizes: sizes, QueryEdges: sh.edges, K: k, M: m, D: 8}})
						}
					}
				}
			}
		}
	}
	return out
}

// TestDecideGolden pins every pick and the exact bits of every estimate over
// goldenWorkloads, so a change that only moves the cost model between files
// provably leaves the plans alone. A deliberate cost-model change
// regenerates the file: go test ./internal/plan/ -run DecideGolden -update.
func TestDecideGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range goldenWorkloads() {
		pl, err := plan.Decide(c.class, c.w, "")
		if err != nil {
			t.Fatal(err)
		}
		w := c.w
		fmt.Fprintf(&buf, "%s V=%d E=%d deg=%g d=%d p=%d q=%d sets=%v edges=%v k=%d m=%d -> %s:",
			c.class, w.Stats.Nodes, w.Stats.Arcs, w.Stats.MeanOutDeg, w.D, w.P, w.Q, w.SetSizes, w.QueryEdges, w.K, w.M, pl.Algorithm)
		for _, e := range pl.Estimates {
			fmt.Fprintf(&buf, " %s=%x", e.Algorithm, e.Cost)
		}
		buf.WriteByte('\n')
	}
	path := filepath.Join("testdata", "decide.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := range min(len(got), len(exp)) {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(got), len(exp))
	}
}
