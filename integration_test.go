package repro

// End-to-end test of the command-line tools: build the binaries, generate a
// dataset, and run joins against it — the workflow the README documents.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	dir := t.TempDir()
	gengraph := buildTool(t, dir, "gengraph")
	njoin := buildTool(t, dir, "njoin")
	experiments := buildTool(t, dir, "experiments")

	graphFile := filepath.Join(dir, "yeast.graph")
	out, err := exec.Command(gengraph, "-kind", "yeast", "-seed", "3", "-o", graphFile).CombinedOutput()
	if err != nil {
		t.Fatalf("gengraph: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "nodes=2400") {
		t.Fatalf("gengraph stats missing: %s", out)
	}
	if fi, err := os.Stat(graphFile); err != nil || fi.Size() == 0 {
		t.Fatalf("graph file not written: %v", err)
	}

	// 2-way join.
	out, err = exec.Command(njoin, "-graph", graphFile, "-sets", "3-U,8-D", "-k", "5", "-limit", "60").CombinedOutput()
	if err != nil {
		t.Fatalf("njoin 2-way: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), "\n"); got < 5 {
		t.Fatalf("njoin printed %d lines:\n%s", got, out)
	}
	if !strings.Contains(string(out), "PJ-i: 5 answers") {
		t.Fatalf("njoin summary missing:\n%s", out)
	}

	// 3-way triangle with SUM and the PJ-i algorithm forced.
	out, err = exec.Command(njoin, "-graph", graphFile, "-sets", "3-U,5-F,8-D",
		"-shape", "triangle", "-k", "3", "-agg", "SUM", "-algo", "pji", "-limit", "25").CombinedOutput()
	if err != nil {
		t.Fatalf("njoin triangle: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "PJ-i: 3 answers") {
		t.Fatalf("triangle summary missing:\n%s", out)
	}
	// PJ is reproduction-only: njoin no longer offers it.
	out, err = exec.Command(njoin, "-graph", graphFile, "-sets", "3-U,5-F,8-D",
		"-shape", "triangle", "-algo", "pj").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "unknown algorithm") {
		t.Fatalf("njoin -algo pj: err %v\n%s", err, out)
	}

	// Error handling: unknown node set.
	out, err = exec.Command(njoin, "-graph", graphFile, "-sets", "bogus").CombinedOutput()
	if err == nil {
		t.Fatalf("njoin accepted a bogus set:\n%s", out)
	}
	if !strings.Contains(string(out), "no node set") {
		t.Fatalf("unhelpful error:\n%s", out)
	}

	// experiments -list enumerates the registry.
	out, err = exec.Command(experiments, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -list: %v\n%s", err, out)
	}
	for _, id := range []string{"table3", "fig7a", "fig10b", "ablation-corner"} {
		if !strings.Contains(string(out), id) {
			t.Fatalf("experiment %s missing from -list:\n%s", id, out)
		}
	}

	// experiments: one cheap experiment end to end.
	out, err = exec.Command(experiments, "-exp", "ablation-schedule").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments -exp: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "doubling") {
		t.Fatalf("ablation output wrong:\n%s", out)
	}
}
