package dhtjoin

// The measure-registry suites: the "dht" kernel through the registry must be
// bit-identical to the measure-less path (the PR 9 behavior), the new ppr
// and simrank kernels must match their reference evaluators, and wrong or
// unknown measure spellings must fail with the typed sentinels.

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/ppr"
	"repro/internal/simrank"
)

// TestMeasureDHTBitIdentical is the registry's equivalence property: a
// query that names the default measure explicitly ("dht", or the empty
// spelling) returns the bit-identical ranking of the same query without a
// measure, across seeds, demands, and both query forms. This is what pins
// "registry resolution changed no numbers".
func TestMeasureDHTBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{3, 21, 77} {
		g, sets := plannerWorld(t, seed)
		p, q := sets[0], sets[1]
		for _, k := range []int{1, 7, 50, p.Len() * q.Len()} {
			base := NewPairQuery(g, p, q)
			want, err := base.TopKPairs(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"", "dht"} {
				got, err := base.WithMeasure(name).TopKPairs(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				comparePairs(t, "measure:"+name, seed, k, got, want)
			}
		}

		qg := Chain(sets[0], sets[1], sets[2])
		for _, k := range []int{1, 10} {
			base := NewJoinQuery(g, qg)
			want, err := base.TopK(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := base.WithMeasure("dht").TopK(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			compareAnswers(t, "measure:dht", k, got, want)
		}
	}
}

// TestMeasurePPRGolden pins the served ppr join against a brute-force
// reference built from the power iteration this package does not share code
// with at join level: every pair scored by its truncated PPR column, ranked
// by (score desc, tie asc).
func TestMeasurePPRGolden(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 21)
	p, q := sets[0], sets[1]
	const d = 8
	opts := &Options{D: d, MeasureName: "ppr"}

	// The reference ranking folds backward reach walks under dht.PPR(0.5) —
	// the fold the planner's backward executors emit, i.e. the serving
	// semantics of the ppr measure. Each score is also checked against the
	// independent power iteration; the two compute the same series in a
	// different summation order, so that link holds to float tolerance
	// while the ranking itself must match the served join bit for bit.
	e, err := dht.NewBatchEngine(g, dht.PPR(0.5), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	cols := make(map[NodeID][]float64, q.Len())
	for _, b := range q.Nodes() {
		cols[b] = slices.Clone(e.BackWalkScoresBatch(dht.Reach, []NodeID{b}, d)[0])
	}
	type ref struct {
		pr    PairResult
		score float64
	}
	var all []ref
	for _, a := range p.Nodes() {
		col, err := ppr.PowerIteration(g, 0.5, a, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range q.Nodes() {
			s := cols[b][a]
			if math.Abs(s-col[b]) > 1e-12 {
				t.Fatalf("walk fold (%d,%d) = %v, power iteration says %v", a, b, s, col[b])
			}
			all = append(all, ref{PairResult{Pair: Pair{P: a, Q: b}, Score: s}, s})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		if all[i].pr.Pair.P != all[j].pr.Pair.P {
			return all[i].pr.Pair.P < all[j].pr.Pair.P
		}
		return all[i].pr.Pair.Q < all[j].pr.Pair.Q
	})

	for _, k := range []int{1, 10, 40} {
		got, err := TopKPairs(g, p, q, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: %d results", k, len(got))
		}
		for i := range got {
			if got[i].Pair != all[i].pr.Pair || got[i].Score != all[i].pr.Score {
				t.Fatalf("k=%d result %d: %+v, reference says %+v", k, i, got[i], all[i].pr)
			}
		}
	}

	// The streamed form yields the same prefix.
	st, err := NewPairQuery(g, p, q).WithOptions(opts).OpenPairs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Stop()
	streamed, err := st.NextK(25)
	if err != nil {
		t.Fatal(err)
	}
	for i := range streamed {
		if streamed[i].Pair != all[i].pr.Pair || streamed[i].Score != all[i].pr.Score {
			t.Fatalf("stream result %d: %+v, reference says %+v", i, streamed[i], all[i].pr)
		}
	}
}

// TestMeasureSimRankGolden pins the served simrank join against the dense
// matrix, and the n-way form's score sequence against brute force over the
// tuple space.
func TestMeasureSimRankGolden(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 77)
	p, q := sets[0], sets[1]
	m, err := simrank.SharedMatrix(g)
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 9, 60} {
		want, err := m.TopKPairs(p.Nodes(), q.Nodes(), k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewPairQuery(g, p, q).WithMeasure("simrank").TopKPairs(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Pair != want[i].Pair || got[i].Score != want[i].Score {
				t.Fatalf("k=%d result %d: %+v, matrix says %+v", k, i, got[i], want[i])
			}
		}
	}

	// n-way: brute-force every chain tuple via the matrix under MIN and
	// compare the descending score sequence (tuple tie order is the
	// executor's canonical key, which the reference does not reproduce).
	qg := Chain(sets[0], sets[1], sets[2])
	const k = 12
	var scores []float64
	for _, a := range sets[0].Nodes() {
		for _, b := range sets[1].Nodes() {
			sAB := m.Score(a, b)
			for _, c := range sets[2].Nodes() {
				scores = append(scores, math.Min(sAB, m.Score(b, c)))
			}
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	got, err := NewJoinQuery(g, qg).WithMeasure("simrank").TopK(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("n-way returned %d answers, want %d", len(got), k)
	}
	for i, a := range got {
		if a.Score != scores[i] {
			t.Fatalf("n-way answer %d score %v, brute force says %v", i, a.Score, scores[i])
		}
	}
}

// TestEpsilonNotFinite: an epsilon that is NaN or infinite fails every entry
// point with ErrEpsilon (inside ErrInvalidOptions) instead of being served at
// some depth, and Steps panics on NaN as it does on a non-positive bound.
func TestEpsilonNotFinite(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		opts := &Options{Epsilon: eps}
		_, err := NewPairQuery(g, sets[0], sets[1]).WithOptions(opts).TopKPairs(ctx, 5)
		if !errors.Is(err, ErrEpsilon) || !errors.Is(err, ErrInvalidOptions) {
			t.Fatalf("epsilon %g: join error %v is not ErrEpsilon inside ErrInvalidOptions", eps, err)
		}
		if _, err := Score(g, 0, 1, opts); !errors.Is(err, ErrEpsilon) {
			t.Fatalf("epsilon %g: Score error %v is not ErrEpsilon", eps, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Steps(NaN) returned instead of panicking")
		}
	}()
	Steps(DHTLambda(0.2), math.NaN())
}

// TestMeasureUnknown: unknown spellings fail every entry point with the
// errors.Is-able sentinel.
func TestMeasureUnknown(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]

	_, err := NewPairQuery(g, p, q).WithMeasure("katz").TopKPairs(ctx, 5)
	if !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("join error %v is not ErrUnknownMeasure", err)
	}
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("join error %v is not ErrInvalidOptions", err)
	}
	if _, err := Score(g, 0, 1, &Options{MeasureName: "katz"}); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("Score error %v is not ErrUnknownMeasure", err)
	}
	if _, err := ScoresFrom(g, 1, &Options{MeasureName: "katz"}, nil); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("ScoresFrom error %v is not ErrUnknownMeasure", err)
	}
	if _, _, err := AlgorithmsForMeasure("katz"); !errors.Is(err, ErrUnknownMeasure) {
		t.Fatalf("AlgorithmsForMeasure error %v is not ErrUnknownMeasure", err)
	}

	found := false
	for _, name := range Measures() {
		if name == "simrank" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Measures() = %v, missing simrank", Measures())
	}
}

// TestMeasureHintConflict: forcing an executor across the measure boundary
// is a hint conflict, and the per-measure algorithm lists reflect the split.
func TestMeasureHintConflict(t *testing.T) {
	ctx := context.Background()
	g, sets := plannerWorld(t, 3)
	p, q := sets[0], sets[1]

	_, err := NewPairQuery(g, p, q).WithMeasure("simrank").
		WithHints(Hints{Algorithm: "B-IDJ-Y"}).TopKPairs(ctx, 5)
	if !errors.Is(err, ErrHintConflict) {
		t.Fatalf("walk executor on simrank query: %v, want ErrHintConflict", err)
	}
	_, err = NewPairQuery(g, p, q).WithHints(Hints{Algorithm: "SR-SCAN"}).TopKPairs(ctx, 5)
	if !errors.Is(err, ErrHintConflict) {
		t.Fatalf("SR-SCAN on walk query: %v, want ErrHintConflict", err)
	}

	for _, name := range Algorithms2Way() {
		if name == "SR-SCAN" {
			t.Fatal("Algorithms2Way lists the simrank executor")
		}
	}
	two, nway, err := AlgorithmsForMeasure("simrank")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 1 || two[0] != "SR-SCAN" || len(nway) != 1 || nway[0] != "SR-AP" {
		t.Fatalf("simrank executors = %v / %v", two, nway)
	}

	// Forcing within the measure works and Explain reports the dedicated
	// candidate table.
	pl, err := NewPairQuery(g, p, q).WithMeasure("simrank").Explain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Algorithm != "SR-SCAN" || len(pl.Estimates) != 1 {
		t.Fatalf("simrank plan = %+v", pl)
	}
	forced, err := NewPairQuery(g, p, q).WithMeasure("simrank").
		WithHints(Hints{Algorithm: "SR-SCAN"}).TopKPairs(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(forced) != 3 {
		t.Fatalf("forced SR-SCAN returned %d results", len(forced))
	}
}

// TestMeasureScorePaths: the one-pair and one-column entry points honor the
// measure name, including the matrix family.
func TestMeasureScorePaths(t *testing.T) {
	g, sets := plannerWorld(t, 21)
	u := sets[0].Nodes()[0]
	v := sets[1].Nodes()[0]

	const d = 8
	col, err := ppr.PowerIteration(g, 0.5, u, d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Score(g, u, v, &Options{D: d, MeasureName: "ppr"})
	if err != nil {
		t.Fatal(err)
	}
	if got != col[v] {
		t.Fatalf("ppr Score = %v, power iteration says %v", got, col[v])
	}

	m, err := simrank.SharedMatrix(g)
	if err != nil {
		t.Fatal(err)
	}
	sGot, err := Score(g, u, v, &Options{MeasureName: "simrank"})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Score(u, v); sGot != want {
		t.Fatalf("simrank Score = %v, matrix says %v", sGot, want)
	}

	colGot, err := ScoresFrom(g, v, &Options{MeasureName: "simrank"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range colGot {
		if want := m.Score(graph.NodeID(i), v); colGot[i] != want {
			t.Fatalf("simrank ScoresFrom[%d] = %v, matrix says %v", i, colGot[i], want)
		}
	}
}
