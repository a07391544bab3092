// Command experiments regenerates the paper's tables and figures (§VII) on
// the synthetic dataset substitutes, printing each as an aligned text table.
//
// Usage:
//
//	experiments                 # run everything, quick sizing
//	experiments -full           # paper-scale sizing (slow)
//	experiments -exp fig9a      # one experiment
//	experiments -list           # list experiment ids
//
// -cpuprofile and -memprofile write pprof profiles of the experiment runs,
// so a kernel regression can be diagnosed straight from this binary:
//
//	experiments -exp fig9a -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expID      = flag.String("exp", "", "run a single experiment by id (default: all)")
		full       = flag.Bool("full", false, "paper-scale configuration (slow; quick sizing otherwise)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		seed       = flag.Int64("seed", 1, "dataset RNG seed")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the runs to this file")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-22s %s\n", r.ID, r.Title)
		}
		return nil
	}

	cfg := experiments.Quick()
	if *full {
		cfg = experiments.Full()
	}
	cfg.Seed = *seed
	env := experiments.NewEnv(cfg)

	runners := experiments.All()
	if *expID != "" {
		r, err := experiments.ByID(*expID)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Printf("# multi-way join over DHT — experiment suite (%s mode, seed %d)\n\n", mode, *seed)
	for _, r := range runners {
		start := time.Now()
		tab, err := r.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Println(tab.Render())
		fmt.Printf("(%s finished in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize retained heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
