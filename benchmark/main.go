// Command benchmark is the repository's benchmark: it builds and starts a
// real njoind process, drives it over loopback TCP from this single
// load-generating process, checks answers against the one-shot dhtjoin
// oracle, and prints every metric BENCHMARK.json names. See README.md.
//
// Usage (from the benchmark directory, or with go run -C benchmark .):
//
//	benchmark -seed 1                          # all four workloads: end-to-end, then the traced ladder
//	benchmark -workload join2_cold -seed 1 -seconds 24 -trace 0   # one run, as the driver makes it
//	benchmark -workload join2_cold -seed 1 -out A.json            # ... appended to a result set
//	benchmark -compare A.json B.json           # apply BENCHMARK.json's bounds to two result sets
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four, each untraced then traced)")
		seed    = flag.Int64("seed", 1, "the only source of randomness: graphs and request lists derive from it")
		seconds = flag.Int("seconds", 0, "timed window length (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		out     = flag.String("out", "", "append this run's metrics to a result-set file for -compare")
		compare = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, out string, compare bool, args []string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result-set files, got %d", len(args))
		}
		return compareSets(os.Stdout, bf, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = bf.RunSeconds
	}
	scratch := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	bin, err := buildNjoind(root, scratch)
	if err != nil {
		return err
	}
	e := &env{
		scratch:    scratch,
		rounds:     rounds,
		setupsOnly: setupsOnly,
		start: func(w *workload, dataDir string) (*target, error) {
			return startNjoind(bin, njoindArgs(w, dataDir)...)
		},
	}
	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		return runOne(e, bf, w, seed, seconds, trace, out, true)
	}
	for _, w := range workloads {
		for _, tr := range []int{0, 1} {
			if err := runOne(e, bf, w, seed, seconds, tr, out, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOne makes one run of one workload and prints it; with last it ends the
// output with the driver's JSON result line.
func runOne(e *env, bf *benchmarkFile, w *workload, seed int64, seconds, trace int, out string, last bool) error {
	p, err := prepare(w, seed, seconds)
	if err != nil {
		return err
	}
	defs, measure := bf.EndToEnd, p.runUntraced
	if trace != 0 {
		defs, measure = bf.PerLayer, p.runTraced
	}
	got, m, err := measure(e, seconds)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Printf("== %s  seed=%d  window=%ds  trace=%d ==\n", w.name, seed, seconds, trace)
	printMetrics(os.Stdout, defs, got)
	attempted := m.attempted()
	rate := float64(m.failed) / float64(max(attempted, 1))
	fmt.Printf("  %-34s %14.6f %-6s n=%-7d lower better  must not rise\n", "error_rate", rate, "ratio", attempted)
	for _, n := range m.notes {
		fmt.Println("  !", n)
	}
	if m.ladder != nil {
		fmt.Printf("-- %s --\n", m.ladderTitle)
		printLadder(os.Stdout, m.ladder)
	}
	if out != "" {
		if err := appendToSet(out, w.name, defs, got, rate); err != nil {
			return err
		}
	}
	if last {
		return emit(os.Stdout, defs, got, attempted, m.failed)
	}
	return nil
}

// runUntraced is the end-to-end run: the rounds with tracing off, the
// oracle, and on a durable workload the kill-and-restart check.
func (p *prepared) runUntraced(e *env, seconds int) (map[string]value, *measurement, error) {
	m, err := p.measure(e, seconds, nil)
	if err != nil {
		return nil, nil, err
	}
	return endToEnd(m, p.w.openRate > 0), m, nil
}
