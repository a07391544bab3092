// Command njoin evaluates top-k multi-way joins over DHT on a graph file.
//
// The graph file (text format, see internal/graph) must declare the node
// sets referenced by -sets. The query shape is chain, triangle, star, or
// clique over those sets, in the order given.
//
// Usage:
//
//	gengraph -kind yeast -o yeast.graph
//	njoin -graph yeast.graph -sets 3-U,8-D -k 10                  # 2-way
//	njoin -graph yeast.graph -sets 3-U,5-F,8-D -shape triangle -k 5
//	njoin -graph yeast.graph -sets 3-U,5-F,8-D -agg SUM -algo pji -m 100
//	njoin -graph yeast.graph -sets 3-U,8-D -k 10 -explain         # plan only
//	njoin -graph yeast.graph -sets 3-U,8-D -measure ppr -lambda 0.3
//
// By default (-algo auto) the cost-based planner picks the evaluation
// algorithm from the graph's structural stats and the query shape; -explain
// prints the chosen plan and the per-candidate cost table without running
// the join. -measure selects a served scoring measure
// (internal/measure): every measure runs on the same executors with its
// kernel's walk kind and parameters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/dhtjoin"
	"repro/internal/graph"
	"repro/internal/measure"
	"repro/internal/rankjoin"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "njoin:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("njoin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "graph file in text format (required)")
		setNames  = fs.String("sets", "", "comma-separated node set names, in query order (required)")
		shape     = fs.String("shape", "chain", "chain | triangle | star | clique")
		k         = fs.Int("k", 50, "number of answers")
		m         = fs.Int("m", 0, "per-edge 2-way join budget (PJ-i; default 50)")
		algo      = fs.String("algo", "auto", "auto (cost-based planner) | ap | pji")
		explain   = fs.Bool("explain", false, "print the chosen plan and cost table without running the join")
		aggName   = fs.String("agg", "MIN", "aggregate: SUM | MIN | MAX | AVG")
		measureID = fs.String("measure", "", "scoring measure: dht | reach | ppr (default \"dht\")")
		lambda    = fs.Float64("lambda", 0, "the measure's decay: DHTλ's λ, ppr's damping factor (default: the measure's own, 0.2 for dht, 0.5 for ppr)")
		useDHTE   = fs.Bool("dhte", false, "use the DHTe measure instead of DHTλ")
		eps       = fs.Float64("eps", 0, "truncation accuracy target (Lemma 1; default 1e-6)")
		limit     = fs.Int("limit", 0, "trim each node set to its first N members (0 = all)")
		quiet     = fs.Bool("q", false, "print answers only, no timing")
	)
	if err := fs.Parse(args); err != nil {
		if strings.Contains(err.Error(), "-ppr") {
			err = fmt.Errorf("%w: select the measure by name instead (-measure ppr, with -lambda as its damping factor)", err)
		}
		return err
	}
	if *graphPath == "" || *setNames == "" {
		return fmt.Errorf("-graph and -sets are required (see -h)")
	}
	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, sets, err := graph.ReadText(f)
	if err != nil {
		return err
	}
	byName := make(map[string]*graph.NodeSet, len(sets))
	for _, s := range sets {
		byName[s.Name] = s
	}
	var chosen []*graph.NodeSet
	for _, name := range strings.Split(*setNames, ",") {
		s, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("graph file declares no node set %q (has: %s)", name, names(sets))
		}
		if *limit > 0 {
			s = s.Take(*limit)
		}
		chosen = append(chosen, s)
	}

	var q *dhtjoin.QueryGraph
	switch *shape {
	case "chain":
		q = dhtjoin.Chain(chosen...)
	case "triangle":
		if len(chosen) != 3 {
			return fmt.Errorf("triangle needs exactly 3 sets, got %d", len(chosen))
		}
		q = dhtjoin.Triangle(chosen[0], chosen[1], chosen[2])
	case "star":
		q = dhtjoin.Star(chosen[0], chosen[1:]...)
	case "clique":
		q = dhtjoin.Clique(chosen...)
	default:
		return fmt.Errorf("unknown shape %q", *shape)
	}

	agg, err := rankjoin.ByName(*aggName)
	if err != nil {
		return err
	}
	// -lambda / -dhte name the measure's coefficients the way the njoind
	// wire does; everything else is a dhtjoin.Query, so njoin resolves,
	// plans and executes exactly as the library and the server do.
	params, err := measure.ParamsFor(*measureID, *lambda, *useDHTE)
	if err != nil {
		return err
	}
	// Resolve the -algo flag to a served executor name ("" = planner).
	var forced string
	switch *algo {
	case "auto":
	case "ap":
		forced = "AP"
	case "pji":
		forced = "PJ-i"
	default:
		return fmt.Errorf("unknown algorithm %q (want auto, ap, or pji)", *algo)
	}
	opts := &dhtjoin.Options{MeasureName: *measureID, Params: params, Epsilon: *eps, Agg: agg, M: *m, Algorithm: forced}
	query := dhtjoin.NewJoinQuery(g, q).WithOptions(opts)
	ctx := context.Background()
	pl, err := query.ExplainTopK(ctx, *k)
	if err != nil {
		return err
	}
	if *explain {
		fmt.Fprint(stdout, pl.Format())
		return nil
	}

	start := time.Now()
	answers, err := query.TopK(ctx, *k)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	for i, a := range answers {
		fmt.Fprintf(stdout, "%3d  %s\n", i+1, a.Format(g))
	}
	if !*quiet {
		// For the report only: the coefficients the query resolved to (the
		// plan above already validated them).
		res, _ := opts.Resolve()
		fmt.Fprintf(stderr, "%s: %d answers in %v (d=%d, %s)\n",
			pl.Algorithm, len(answers), elapsed, pl.Workload.D, res.Params)
	}
	return nil
}

func names(sets []*graph.NodeSet) string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = s.Name
	}
	return strings.Join(out, ", ")
}
