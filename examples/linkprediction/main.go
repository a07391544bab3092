// Link prediction (paper §VII-B.2, Example 1): hide half of the
// protein-interaction edges between the two largest Yeast classes, rank the
// candidate pairs with a 2-way DHT join on the remaining graph, and measure
// how well the ranking rediscovers the hidden interactions (ROC / AUC).
//
// The predictions are served, not computed offline: the test graph is loaded
// into an embedded serving stack (the same internal/service njoind runs) and
// the rankings come back through measure-named queries — first under the
// paper's DHT, then under personalized PageRank for comparison — so repeated
// queries share the service's engines and result cache.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/dhtjoin"
	"repro/internal/dataset"
	"repro/internal/eval"
)

func main() {
	yeast, err := dataset.Yeast(1)
	if err != nil {
		log.Fatal(err)
	}
	p, q := yeast.MustSet("3-U"), yeast.MustSet("8-D")
	fmt.Printf("Yeast PPI: %d proteins, %d interactions; P=%s (%d), Q=%s (%d)\n",
		yeast.Graph.NumNodes(), yeast.Graph.NumEdges()/2, p.Name, p.Len(), q.Name, q.Len())

	// Hide half of the (P, Q) interactions.
	testG, removed := dataset.SplitCross(yeast.Graph, p, q, 0.5, 42)
	fmt.Printf("hidden %d interactions; predicting them from the rest\n\n", len(removed))

	// Rank every unlinked (p, q) pair on the test graph and evaluate.
	params := dhtjoin.DHTLambda(0.2)
	res, err := eval.LinkPrediction(yeast.Graph, testG, p, q, params, dhtjoin.Steps(params, 1e-6))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AUC = %.4f over %d candidate pairs\n", res.AUC, len(res.Samples))
	fmt.Println("ROC (FPR → TPR):")
	for _, fpr := range []float64{0.05, 0.1, 0.2, 0.5} {
		fmt.Printf("  %.2f → %.3f\n", fpr, tprAt(res.ROC, fpr))
	}

	// Serve the actionable output. The service resolves "measure" through
	// the registry exactly like njoind's HTTP endpoints do.
	svc := dhtjoin.NewService(dhtjoin.ServiceConfig{})
	if err := svc.LoadGraph("yeast-test", testG, p, q); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	fmt.Println("\ntop predicted new interactions (served, measure=dht):")
	query := svc.PairQuery("yeast-test", p, q)
	top, err := query.TopKPairs(ctx, 200)
	if err != nil {
		log.Fatal(err)
	}
	hidden := printPredictions(yeast, testG, top, 10)

	// The same served query under personalized PageRank: one options field
	// switches the kernel, the admission/caching path stays identical.
	pprTop, err := query.WithMeasure("ppr").TopKPairs(ctx, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop predicted new interactions (served, measure=ppr):")
	pprHidden := printPredictions(yeast, testG, pprTop, 10)
	fmt.Printf("\nhidden edges recovered in the top 10 predictions: dht %d, ppr %d\n",
		hidden, pprHidden)
}

// printPredictions lists the first n ranked pairs that are candidate links
// (absent from the test graph) and reports how many are hidden true edges.
func printPredictions(full *dataset.Dataset, testG *dhtjoin.Graph, top []dhtjoin.PairResult, n int) int {
	shown, hits := 0, 0
	for _, r := range top {
		if testG.HasEdge(r.Pair.P, r.Pair.Q) || r.Pair.P == r.Pair.Q {
			continue
		}
		verdict := "miss"
		if full.Graph.HasEdge(r.Pair.P, r.Pair.Q) {
			verdict = "HIT (hidden edge recovered)"
			hits++
		}
		fmt.Printf("  protein %4d – protein %4d   h=%.4f   %s\n", r.Pair.P, r.Pair.Q, r.Score, verdict)
		shown++
		if shown == n {
			break
		}
	}
	return hits
}

func tprAt(roc []eval.Point, fpr float64) float64 {
	for i := 1; i < len(roc); i++ {
		if roc[i].FPR >= fpr {
			a, b := roc[i-1], roc[i]
			if b.FPR == a.FPR {
				return b.TPR
			}
			return a.TPR + (fpr-a.FPR)/(b.FPR-a.FPR)*(b.TPR-a.TPR)
		}
	}
	return 1
}
