// Multi-interest group formation (paper Example 4): Mary, a sports
// photographer, wants a group with one hobbyist from each of five sports,
// everyone close to her photography community. A 6-way star join with the
// photography group at the centre answers it in one query.
//
// The query is served: the social graph lives in an embedded serving stack
// (the same internal/service njoind runs), the star join is a service call,
// and the scoring measure is named per query from the served measures —
// the paper's DHT first, then personalized PageRank over the identical
// query, so the two rosters are directly comparable.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/dhtjoin"
	"repro/internal/dataset"
)

func main() {
	// A scaled-down YouTube-like friendship graph with interest groups.
	yt, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.05, Seed: 3, Groups: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph: %d users, %d friendships, %d interest groups\n",
		yt.Graph.NumNodes(), yt.Graph.NumEdges()/2, len(yt.Sets))

	// Cast the first six groups as the paper's interest groups. Trim each
	// to its 20 best-connected members to keep the demo snappy.
	sports := []string{"Photography", "Soccer", "Basketball", "Hockey", "Golf", "Tennis"}
	sets := make([]*dhtjoin.NodeSet, len(sports))
	for i := range sports {
		s, err := yt.TopByDegree(fmt.Sprint(i+1), 20)
		if err != nil {
			log.Fatal(err)
		}
		sets[i] = dhtjoin.NewNodeSet(sports[i], s.Nodes())
	}

	svc := dhtjoin.NewService(dhtjoin.ServiceConfig{})
	if err := svc.LoadGraph("youtube", yt.Graph); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Star query: each sports group points at the photography centre; MIN
	// makes the weakest tie to the centre the ranking criterion. Groups
	// overlap (a user can like two sports), so ask for distinct users.
	query := svc.JoinQuery("youtube", dhtjoin.Star(sets[0], sets[1:]...))
	opts := dhtjoin.Options{Agg: dhtjoin.Min, M: 30, Distinct: true}
	answers, err := query.WithOptions(&opts).TopK(ctx, 5)
	if err != nil {
		log.Fatal(err)
	}
	printRosters("measure=dht", sports, answers)

	// The identical served query under personalized PageRank: naming the
	// measure is the only change, and the served kernel supplies its
	// own default parameters (damping 0.5).
	pprOpts := opts
	pprOpts.MeasureName = "ppr"
	pprAnswers, err := query.WithOptions(&pprOpts).TopK(ctx, 5)
	if err != nil {
		log.Fatal(err)
	}
	printRosters("measure=ppr", sports, pprAnswers)
}

func printRosters(measure string, sports []string, answers []dhtjoin.Answer) {
	fmt.Printf("\ntop-5 multi-interest group rosters (star query, MIN, %s):\n", measure)
	for i, a := range answers {
		fmt.Printf("  roster %d (f=%.4f):\n", i+1, a.Score)
		for j, node := range a.Nodes {
			fmt.Printf("      %-11s user %5d\n", sports[j]+":", node)
		}
	}
}
