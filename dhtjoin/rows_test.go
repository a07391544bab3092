package dhtjoin

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestRowsFormRankingsBitIdentical: the backward joiners walk only the rows
// of P (the batched kernel's rows form, with its gathered tail), so every
// executor that sits on them must still return the full ranking of the
// forced reference — B-BJ for pairs, AP for tuples — float64-== and in the
// same order, across walk measures, on a graph large
// enough that deep walks go dense and the tail steps gather.
// Under the first-hit measure the forward executors (F-BJ, and AP, which is
// built on it) share no kernel path with the rows form and are bit-identical
// to the backward family, so they are the independent reference; the reach
// fold differs between the two directions in the last ulp (DESIGN.md, "A
// pinned looseness"), so there the tuples are checked against PJ, and the
// pairs' B-BJ is pinned to full columns by internal/join2's
// TestRowsFormJoinersMatchFullForm.
func TestRowsFormRankingsBitIdentical(t *testing.T) {
	ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.06, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	a, b, c := ds.MustSet("1").Take(16), ds.MustSet("2").Take(16), ds.MustSet("3").Take(16)
	chain := Chain(a.Take(8), b.Take(8), c.Take(8))
	ctx := context.Background()
	for _, measure := range []string{"dht", "reach", "ppr"} {
		opts := &Options{MeasureName: measure}
		label := measure
		pairs := NewPairQuery(g, a, b).WithOptions(opts)
		all := a.Len() * b.Len()
		want, err := pairs.WithHints(Hints{Algorithm: "B-BJ"}).TopKPairs(ctx, all)
		if err != nil {
			t.Fatal(err)
		}
		forced, tupleRef := []string{"B-IDJ-X", "B-IDJ-Y"}, "PJ"
		if measure == "dht" {
			forced, tupleRef = append(forced, "F-BJ"), "AP"
		}
		for _, name := range forced {
			got, err := pairs.WithHints(Hints{Algorithm: name}).TopKPairs(ctx, all)
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			comparePairs(t, label+"/"+name, 0, all, got, want)
		}
		var drained []PairResult // the incremental stream
		for r, err := range pairs.Results(ctx) {
			if err != nil {
				t.Fatal(err)
			}
			drained = append(drained, r)
		}
		comparePairs(t, label+"/stream", 0, all, drained, want)

		tuples := NewJoinQuery(g, chain).WithOptions(opts)
		k := 8 * 8 * 8
		wantN, err := tuples.WithHints(Hints{Algorithm: tupleRef}).TopK(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := tuples.WithHints(Hints{Algorithm: "PJ-i"}).TopK(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		compareAnswers(t, label+"/PJ-i", k, gotN, wantN, false)
	}
}
