package dhtjoin_test

import (
	"context"
	"fmt"
	"log"

	"repro/dhtjoin"
)

// square returns the 4-cycle 0-1-2-3 with one chord.
func square() *dhtjoin.Graph {
	b := dhtjoin.NewBuilder(4, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 1)
	b.AddEdge(0, 2, 1) // chord
	return b.Build()
}

func ExampleScore() {
	g := square()
	s, err := dhtjoin.Score(g, 1, 3, nil) // defaults: DHTλ, λ=0.2, d=8
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("h(1,3) = %.4f\n", s)
	// Output:
	// h(1,3) = -1.2319
}

func ExampleTopKPairs() {
	g := square()
	p := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0, 1})
	q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{2, 3})
	pairs, err := dhtjoin.TopKPairs(g, p, q, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range pairs {
		fmt.Printf("%d: (%d,%d) %.4f\n", i+1, r.Pair.P, r.Pair.Q, r.Score)
	}
	// Output:
	// 1: (1,2) -1.1149
	// 2: (0,2) -1.1486
}

func ExampleTopK() {
	g := square()
	p := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0})
	q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{1, 2})
	r := dhtjoin.NewNodeSet("R", []dhtjoin.NodeID{3})
	answers, err := dhtjoin.TopK(g, dhtjoin.Chain(p, q, r), 2, &dhtjoin.Options{Agg: dhtjoin.Sum})
	if err != nil {
		log.Fatal(err)
	}
	for i, a := range answers {
		fmt.Printf("%d: %v %.4f\n", i+1, a.Nodes, a.Score)
	}
	// Output:
	// 1: [0 2 3] -2.3081
	// 2: [0 1 3] -2.3913
}

func ExampleSteps() {
	// The paper's §VII-A default: DHTλ with λ=0.2 and ε=1e-6 needs d=8.
	fmt.Println(dhtjoin.Steps(dhtjoin.DHTLambda(0.2), 1e-6))
	// Output:
	// 8
}

func ExampleQuery_Results() {
	g := square()
	p := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0, 1})
	q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{2, 3})
	// Results is an iter.Seq2: range over it and break whenever enough —
	// the join stops deepening and releases its engines immediately.
	query := dhtjoin.NewPairQuery(g, p, q)
	n := 0
	for r, err := range query.Results(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%d,%d) %.4f\n", r.Pair.P, r.Pair.Q, r.Score)
		if n++; n == 2 {
			break
		}
	}
	// Output:
	// (1,2) -1.1149
	// (0,2) -1.1486
}

func ExampleQuery_Explain() {
	g := square()
	p := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0, 1})
	q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{2, 3})
	// Explain is a dry run: the cost-based planner prices every registered
	// executor against the graph's cached stats and reports its pick —
	// here B-BJ, because the default budget covers the whole 2×2 candidate
	// space, leaving iterative deepening nothing to prune. The streaming
	// entry points (Results, OpenPairs, …) run exactly this plan; the batch
	// TopKPairs(ctx, k) re-plans for its exact k — ExplainTopK prices that
	// — and WithHints forces a row of the table, bit-identically.
	pl, err := dhtjoin.NewPairQuery(g, p, q).Explain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chosen: %s (forced=%v, %d candidates priced)\n",
		pl.Algorithm, pl.Forced, len(pl.Estimates))
	fmt.Printf("cheapest: %s, most expensive: %s\n",
		pl.Estimates[0].Algorithm, pl.Estimates[len(pl.Estimates)-1].Algorithm)
	// Output:
	// chosen: B-BJ (forced=false, 3 candidates priced)
	// cheapest: B-BJ, most expensive: B-IDJ-Y
}

func ExamplePairStream_NextK() {
	g := square()
	p := dhtjoin.NewNodeSet("P", []dhtjoin.NodeID{0, 1})
	q := dhtjoin.NewNodeSet("Q", []dhtjoin.NodeID{2, 3})
	// OpenPairs hands out an explicit handle: NextK pages through the
	// ranking ("give me the next k"), Stop releases the stream.
	s, err := dhtjoin.NewPairQuery(g, p, q).OpenPairs(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer s.Stop()
	for page := 1; page <= 2; page++ {
		results, err := s.NextK(2)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			fmt.Printf("page %d: (%d,%d) %.4f\n", page, r.Pair.P, r.Pair.Q, r.Score)
		}
	}
	// Output:
	// page 1: (1,2) -1.1149
	// page 1: (0,2) -1.1486
	// page 2: (0,3) -1.1594
	// page 2: (1,3) -1.2319
}
