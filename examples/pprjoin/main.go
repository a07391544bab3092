// Personalized-PageRank joins (the extension named in the paper's
// conclusion): the same multi-way join machinery runs over reach-based walk
// measures. This example joins the Yeast protein classes under both the
// paper's first-hit DHT and Personalized PageRank and compares the top
// pairs the two measures select.
package main

import (
	"fmt"
	"log"

	"repro/dhtjoin"
	"repro/internal/dataset"
)

func main() {
	yeast, err := dataset.Yeast(1)
	if err != nil {
		log.Fatal(err)
	}
	p3u, err := yeast.TopByDegree("3-U", 80)
	if err != nil {
		log.Fatal(err)
	}
	p8d, err := yeast.TopByDegree("8-D", 80)
	if err != nil {
		log.Fatal(err)
	}

	dhtOpts := &dhtjoin.Options{Params: dhtjoin.DHTLambda(0.2)}
	// Naming the measure pulls params and walk kind from the served kernel
	// (ppr defaults to damping 0.5 over the reach fold).
	pprOpts := &dhtjoin.Options{MeasureName: "ppr"}

	dhtPairs, err := dhtjoin.TopKPairs(yeast.Graph, p3u, p8d, 10, dhtOpts)
	if err != nil {
		log.Fatal(err)
	}
	pprPairs, err := dhtjoin.TopKPairs(yeast.Graph, p3u, p8d, 10, pprOpts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("top (3-U, 8-D) protein pairs under two walk measures:")
	fmt.Printf("%-4s  %-22s  %-22s\n", "rank", "DHTλ (first-hit)", "PPR (reach)")
	for i := 0; i < 10; i++ {
		fmt.Printf("%-4d  %4d–%-4d  h=%8.5f  %4d–%-4d  π=%8.5f\n",
			i+1,
			dhtPairs[i].Pair.P, dhtPairs[i].Pair.Q, dhtPairs[i].Score,
			pprPairs[i].Pair.P, pprPairs[i].Pair.Q, pprPairs[i].Score)
	}

	overlap := 0
	in := make(map[dhtjoin.Pair]bool, len(dhtPairs))
	for _, r := range dhtPairs {
		in[r.Pair] = true
	}
	for _, r := range pprPairs {
		if in[r.Pair] {
			overlap++
		}
	}
	fmt.Printf("\nthe two measures agree on %d of 10 top pairs\n", overlap)

	// The n-way machinery is measure-agnostic too: a PPR triangle join.
	p5f, err := yeast.TopByDegree("5-F", 80)
	if err != nil {
		log.Fatal(err)
	}
	tri, err := dhtjoin.TopK(yeast.Graph, dhtjoin.Triangle(p3u, p5f, p8d), 5, pprOpts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop-5 protein triples under PPR (triangle query, MIN):")
	for i, a := range tri {
		fmt.Printf("  %d. (%d, %d, %d)  f=%.5f\n", i+1, a.Nodes[0], a.Nodes[1], a.Nodes[2], a.Score)
	}
}
