package dhtjoin

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestRowsFormRankingsBitIdentical: the backward joiners walk only the rows
// of P (the batched kernel's rows form, with its gathered tail), so every
// served executor must return the full ranking of the forced reference —
// B-BJ for pairs, AP for tuples — float64-== and in the same order, across
// walk measures, on a graph large enough that deep walks go dense and the
// tail steps gather. No served executor folds forward, so no measure is
// exempt; AP's one-edge join is also pinned to B-BJ's pairs, and B-BJ
// itself to full columns by internal/join2's TestRowsFormJoinersMatchFullForm.
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
		for _, name := range Algorithms2Way() {
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

		edge, err := NewJoinQuery(g, Chain(a, b)).WithOptions(opts).
			WithHints(Hints{Algorithm: "AP"}).TopK(ctx, all)
		if err != nil {
			t.Fatal(err)
		}
		if len(edge) != len(want) {
			t.Fatalf("%s/AP edge: %d answers, want %d", label, len(edge), len(want))
		}
		for i, w := range want {
			if e := edge[i]; e.Score != w.Score || e.Nodes[0] != w.Pair.P || e.Nodes[1] != w.Pair.Q {
				t.Fatalf("%s/AP edge rank %d: %v, B-BJ says %+v", label, i, e, w)
			}
		}

		tuples := NewJoinQuery(g, chain).WithOptions(opts)
		k := 8 * 8 * 8
		wantN, err := tuples.WithHints(Hints{Algorithm: "AP"}).TopK(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := tuples.WithHints(Hints{Algorithm: "PJ-i"}).TopK(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		compareAnswers(t, label+"/PJ-i", k, gotN, wantN)
	}
}
