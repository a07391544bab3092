package dhtjoin

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// plannerWorld builds a seeded community graph for the planner suites.
func plannerWorld(t testing.TB, seed int64) (*Graph, []*NodeSet) {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{16, 14, 12}, PIn: 0.25, POut: 0.08, Seed: seed, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, sets
}

// TestPlannerEquivalence2Way is the property suite of the planner contract:
// whatever executor the planner selects, the ranking must be bit-identical
// (same pairs, float64 ==, canonical tie order) to the forced pre-planner
// default B-IDJ-Y — across seeds, demands k (from 1 to the full candidate
// space, sweeping the selectivity range where the planner changes its pick),
// and every other forceable 2-way executor.
func TestPlannerEquivalence2Way(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 21, 77} {
		g, sets := plannerWorld(t, seed)
		p, q := sets[0], sets[1]
		space := p.Len() * q.Len()
		for _, k := range []int{1, 7, 50, space} {
			base := NewPairQuery(g, p, q)
			want, err := base.WithHints(Hints{Algorithm: "B-IDJ-Y"}).TopKPairs(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			planned, err := base.TopKPairs(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			comparePairs(t, "planner", seed, k, planned, want)
			for _, name := range Algorithms2Way() {
				forced, err := base.WithHints(Hints{Algorithm: name}).TopKPairs(ctx, k)
				if err != nil {
					t.Fatalf("forcing %s: %v", name, err)
				}
				comparePairs(t, name, seed, k, forced, want)
			}
		}
	}
}

func comparePairs(t *testing.T, label string, seed int64, k int, got, want []PairResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s seed=%d k=%d: %d results, want %d", label, seed, k, len(got), len(want))
	}
	for i := range want {
		if got[i].Pair != want[i].Pair || got[i].Score != want[i].Score {
			t.Fatalf("%s seed=%d k=%d rank %d: got %+v, want %+v", label, seed, k, i, got[i], want[i])
		}
	}
}

// TestPlannerEquivalenceNWay: planner-selected n-way execution against
// forced PJ-i, across seeds, query shapes, and k; plus every forceable
// operator (AP drives the identical PBRJ emission order).
func TestPlannerEquivalenceNWay(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 21} {
		g, sets := plannerWorld(t, seed)
		shapes := map[string]*QueryGraph{
			"chain":    Chain(sets[0], sets[1], sets[2]),
			"triangle": Triangle(sets[0], sets[1], sets[2]),
			"star":     Star(sets[0], sets[1], sets[2]),
		}
		for shape, qg := range shapes {
			for _, k := range []int{1, 5, 25} {
				base := NewJoinQuery(g, qg)
				want, err := base.WithHints(Hints{Algorithm: "PJ-i"}).TopK(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				planned, err := base.TopK(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				compareAnswers(t, "planner/"+shape, k, planned, want)
				for _, name := range AlgorithmsNWay() {
					forced, err := base.WithHints(Hints{Algorithm: name}).TopK(ctx, k)
					if err != nil {
						t.Fatalf("forcing %s: %v", name, err)
					}
					compareAnswers(t, name+"/"+shape, k, forced, want)
				}
			}
		}
	}
}

func compareAnswers(t *testing.T, label string, k int, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s k=%d: %d answers, want %d", label, k, len(got), len(want))
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Fatalf("%s k=%d rank %d: score %v, want %v", label, k, i, got[i].Score, want[i].Score)
		}
	}
	for i := range want {
		if len(got[i].Nodes) != len(want[i].Nodes) {
			t.Fatalf("%s k=%d rank %d: arity %d, want %d", label, k, i, len(got[i].Nodes), len(want[i].Nodes))
		}
		for pos := range want[i].Nodes {
			if got[i].Nodes[pos] != want[i].Nodes[pos] {
				t.Fatalf("%s k=%d rank %d: nodes %v, want %v", label, k, i, got[i].Nodes, want[i].Nodes)
			}
		}
	}
}

// TestPlannerStreamEquivalence: the streaming entry points run the planner
// pick too; their prefixes must match the forced-default batch exactly.
func TestPlannerStreamEquivalence(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 21)
	p, q := sets[0], sets[1]
	want, err := NewPairQuery(g, p, q).WithHints(Hints{Algorithm: "B-IDJ-Y"}).TopKPairs(ctx, 30)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []PairResult
	for r, err := range NewPairQuery(g, p, q).Results(ctx) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
		if len(streamed) == 30 {
			break
		}
	}
	comparePairs(t, "stream", 21, 30, streamed, want)
}

// TestHintRejection pins the typed error contract of invalid hints.
func TestHintRejection(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]
	pair := NewPairQuery(g, p, q)
	nway := NewJoinQuery(g, Chain(sets[0], sets[1], sets[2]))

	cases := []struct {
		name  string
		query *Query
		hints Hints
		want  error
	}{
		{"unknown algorithm", pair, Hints{Algorithm: "B-IDJ-Z"}, ErrUnknownAlgorithm},
		{"unknown n-way algorithm", nway, Hints{Algorithm: "PJ-ii"}, ErrUnknownAlgorithm},
		{"retired certified backward joiner", pair, Hints{Algorithm: "B-BJ-fast"}, ErrUnknownAlgorithm},
		{"retired certified forward joiner", pair, Hints{Algorithm: "F-BJ-fast"}, ErrUnknownAlgorithm},
		{"reproduction-only F-BJ", pair, Hints{Algorithm: "F-BJ"}, ErrUnknownAlgorithm},
		{"reproduction-only F-IDJ", pair, Hints{Algorithm: "F-IDJ"}, ErrUnknownAlgorithm},
		{"reproduction-only NL", nway, Hints{Algorithm: "NL"}, ErrUnknownAlgorithm},
		{"reproduction-only PJ", nway, Hints{Algorithm: "PJ"}, ErrUnknownAlgorithm},
		{"n-way executor on pair query", pair, Hints{Algorithm: "PJ-i"}, ErrHintConflict},
		{"2-way executor on n-way query", nway, Hints{Algorithm: "B-BJ"}, ErrHintConflict},
	}
	for _, tc := range cases {
		qy := tc.query.WithHints(tc.hints)
		err := qy.Validate()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate = %v, want %v", tc.name, err, tc.want)
		}
		// An unknown name is answered with the names that would have worked.
		served := "B-IDJ-Y"
		if tc.query == nway {
			served = "PJ-i"
		}
		if tc.want == ErrUnknownAlgorithm && !strings.Contains(err.Error(), served) {
			t.Errorf("%s: %v does not list the served executors", tc.name, err)
		}
		if _, err := qy.Explain(ctx); !errors.Is(err, tc.want) {
			t.Errorf("%s: Explain = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := qy.TopKPairs(ctx, 5); tc.query == pair && !errors.Is(err, tc.want) {
			t.Errorf("%s: TopKPairs = %v, want %v", tc.name, err, tc.want)
		}
		// The iterator yields the validation error as its only element.
		if tc.query == nway {
			for _, err := range qy.Answers(ctx) {
				if !errors.Is(err, tc.want) {
					t.Errorf("%s: Answers yielded %v, want %v", tc.name, err, tc.want)
				}
				break
			}
		}
	}
}

// TestExplain pins the plan shape: every supported query form gets a plan
// with every served candidate priced, estimates ascending, and the
// forced flag faithfully reported.
func TestExplain(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]

	pl, err := NewPairQuery(g, p, q).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Estimates) != len(Algorithms2Way()) {
		t.Fatalf("2-way plan has %d estimates, want %d", len(pl.Estimates), len(Algorithms2Way()))
	}
	if pl.Forced {
		t.Fatal("unforced plan reports Forced")
	}
	if pl.Algorithm != pl.Estimates[0].Algorithm {
		t.Fatalf("chosen %q is not the cheapest estimate %q", pl.Algorithm, pl.Estimates[0].Algorithm)
	}
	for i := 1; i < len(pl.Estimates); i++ {
		if pl.Estimates[i].Cost < pl.Estimates[i-1].Cost {
			t.Fatalf("estimates not ascending at %d: %v", i, pl.Estimates)
		}
	}
	if pl.Workload.Stats.Nodes != g.NumNodes() {
		t.Fatalf("plan stats nodes = %d, want %d", pl.Workload.Stats.Nodes, g.NumNodes())
	}

	for _, shape := range []*QueryGraph{
		Chain(sets[0], sets[1]),
		Chain(sets[0], sets[1], sets[2]),
		Triangle(sets[0], sets[1], sets[2]),
		Star(sets[0], sets[1], sets[2]),
		Clique(sets[0], sets[1], sets[2]),
	} {
		npl, err := NewJoinQuery(g, shape).Explain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(npl.Estimates) != len(AlgorithmsNWay()) {
			t.Fatalf("n-way plan has %d estimates, want %d", len(npl.Estimates), len(AlgorithmsNWay()))
		}
	}

	forced, err := NewPairQuery(g, p, q).WithHints(Hints{Algorithm: "B-IDJ-X"}).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !forced.Forced || forced.Algorithm != "B-IDJ-X" {
		t.Fatalf("forced plan = %+v, want B-IDJ-X forced", forced)
	}
	if len(forced.Estimates) != len(Algorithms2Way()) {
		t.Fatal("forced plan lost the cost table")
	}
}

// TestPlannerPicksBBJForFullRanking pins the cost model's headline
// non-default decision: demanding the entire candidate space flips the
// 2-way choice from B-IDJ-Y (nothing left to prune) to B-BJ.
func TestPlannerPicksBBJForFullRanking(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]
	space := p.Len() * q.Len()

	low, err := NewPairQuery(g, p, q).WithOptions(&Options{M: 1}).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if low.Algorithm != "B-IDJ-Y" {
		t.Fatalf("low-selectivity pick = %s, want B-IDJ-Y", low.Algorithm)
	}
	full, err := NewPairQuery(g, p, q).WithOptions(&Options{M: space}).Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if full.Algorithm != "B-BJ" {
		t.Fatalf("full-ranking pick = %s, want B-BJ", full.Algorithm)
	}

	// ExplainTopK prices the batch wrapper's exact demand (TopKPairs
	// re-plans for its k) without touching the per-edge budget M.
	viaK, err := NewPairQuery(g, p, q).ExplainTopK(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if viaK.Algorithm != "B-BJ" {
		t.Fatalf("ExplainTopK(space) pick = %s, want B-BJ", viaK.Algorithm)
	}
	smallK, err := NewPairQuery(g, p, q).ExplainTopK(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if smallK.Algorithm != "B-IDJ-Y" {
		t.Fatalf("ExplainTopK(1) pick = %s, want B-IDJ-Y", smallK.Algorithm)
	}
	if _, err := NewPairQuery(g, p, q).ExplainTopK(ctx, 0); !errors.Is(err, ErrInvalidK) {
		t.Fatalf("ExplainTopK(0) = %v, want ErrInvalidK", err)
	}
}

// TestHintsForceAlgorithmOnly: Hints carries the forced executor and nothing
// else, and a forced algorithm next to explicit Options still produces the
// identical ranking.
func TestHintsForceAlgorithmOnly(t *testing.T) {
	if ht := reflect.TypeOf(Hints{}); ht.NumField() != 1 || ht.Field(0).Name != "Algorithm" {
		t.Fatalf("Hints has fields beyond Algorithm: %v", ht)
	}
	ctx := context.Background()
	g, sets := plannerWorld(t, 21)
	p, q := sets[0], sets[1]
	want, err := NewPairQuery(g, p, q).TopKPairs(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPairQuery(g, p, q).
		WithOptions(&Options{Epsilon: 1e-6}).
		WithHints(Hints{Algorithm: "B-BJ"}).
		TopKPairs(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	comparePairs(t, "forced-with-options", 21, 20, got, want)

	// Options.Algorithm forces the same executor, a hint wins over it, and
	// WithHints and WithOptions commute.
	forced := &Options{Algorithm: "B-BJ"}
	bogus := &Options{Algorithm: "B-IDJ-Z"}
	hint := Hints{Algorithm: "B-BJ"}
	for name, qy := range map[string]*Query{
		"options algorithm":   NewPairQuery(g, p, q).WithOptions(forced),
		"hint after options":  NewPairQuery(g, p, q).WithOptions(bogus).WithHints(hint),
		"hint before options": NewPairQuery(g, p, q).WithHints(hint).WithOptions(bogus),
	} {
		pl, err := qy.ExplainTopK(ctx, 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Algorithm != "B-BJ" || !pl.Forced {
			t.Fatalf("%s: plan runs %s (forced=%v), want forced B-BJ", name, pl.Algorithm, pl.Forced)
		}
		got, err := qy.TopKPairs(ctx, 20)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		comparePairs(t, name, 21, 20, got, want)
	}
}
