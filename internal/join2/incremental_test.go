package join2

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// assertFullDrainMatchesBBJ drains an incremental stream over cfg to
// exhaustion and requires the canonical ranking — B-BJ's, which orders by
// (score descending, TieKey ascending) — position for position.
func assertFullDrainMatchesBBJ(t *testing.T, name string, cfg Config, initial int) {
	t.Helper()
	ref, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TopK(cfg.MaxPairs())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewIncrementalStream(cfg, BoundY, StreamSpec{Initial: initial})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	got, err := Drain(cfg.MaxPairs()+1, st.Next)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, name, got, want)
}

// asReach switches a config to Personalized PageRank over the reach kernel.
func asReach(cfg Config) Config {
	cfg.Params = dht.PPR(0.5)
	cfg.D = cfg.Params.StepsForEpsilon(1e-7)
	cfg.Measure = dht.Reach
	return cfg
}

// nearTieConfig builds the all-tied workload: complete bipartite P→Q with
// unit weights, so every p has the identical out-distribution, every q the
// identical in-structure, and h(p, q) is one constant over all 144 pairs.
func nearTieConfig(t *testing.T) Config {
	t.Helper()
	const nP, nQ = 12, 12
	b := graph.NewBuilder(nP+nQ, true)
	ps := make([]graph.NodeID, nP)
	qs := make([]graph.NodeID, nQ)
	for i := range ps {
		ps[i] = graph.NodeID(i)
		for j := range qs {
			qs[j] = graph.NodeID(nP + j)
			b.AddEdge(ps[i], qs[j], 1)
		}
	}
	return Config{Graph: b.Build(), Params: dht.DHTLambda(0.2), D: 8, P: ps, Q: qs}
}

// TestIncrementalTieOrderAllTied: on the graph where all 144 pairs score the
// same, every position past the initial batch is decided by the tie rule
// alone — F's order must be (upper descending, pair key ascending), and a
// pair decided by bounds must not overtake a tied pair with a smaller key.
func TestIncrementalTieOrderAllTied(t *testing.T) {
	for _, initial := range []int{1, 5, 50} {
		cfg := nearTieConfig(t)
		assertFullDrainMatchesBBJ(t, fmt.Sprintf("first-hit, initial %d", initial), cfg, initial)
		assertFullDrainMatchesBBJ(t, fmt.Sprintf("reach, initial %d", initial), asReach(cfg), initial)
	}
}

// TestIncrementalTieOrderBetaTail: sparse community graphs where most of the
// 30×30 pairs are out of reach within d, so the ranking ends in a long tail
// of pairs tied at the measure's floor score, interleaved column by column
// in F — the shape a served stream drained deep actually meets. A small
// initial batch leaves the most cells for batched full-depth refinements.
func TestIncrementalTieOrderBetaTail(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
			Sizes: []int{120, 120, 120}, PIn: 0.012, POut: 0.002, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Graph: g, Params: dht.DHTLambda(0.2), D: 8,
			P: sets[0].Nodes()[:30], Q: sets[1].Nodes()[:30],
		}
		for _, initial := range []int{1, 5, 50} {
			assertFullDrainMatchesBBJ(t, fmt.Sprintf("first-hit, seed %d, initial %d", seed, initial), cfg, initial)
			assertFullDrainMatchesBBJ(t, fmt.Sprintf("reach, seed %d, initial %d", seed, initial), asReach(cfg), initial)
		}
	}
}

// TestIncrementalDuplicateIDs: P and Q are sets. A library caller whose lists
// repeat a node gets each pair once — the repeat-free ranking — from Run and
// from Next alike.
func TestIncrementalDuplicateIDs(t *testing.T) {
	cfg := testConfig(t, 5, 0.2)
	cfg.P, cfg.Q = cfg.P[:6], cfg.Q[:5]
	ref, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TopK(cfg.MaxPairs())
	if err != nil {
		t.Fatal(err)
	}
	dup := cfg
	dup.P = append(append([]graph.NodeID{}, cfg.P...), cfg.P[2], cfg.P[0], cfg.P[2])
	dup.Q = append([]graph.NodeID{cfg.Q[0]}, cfg.Q...)
	for _, initial := range []int{3, len(dup.P) * len(dup.Q)} {
		st, err := NewIncrementalStream(dup, BoundY, StreamSpec{Initial: initial})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Drain(len(dup.P)*len(dup.Q)+1, st.Next)
		st.Release()
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, fmt.Sprintf("duplicate ids, initial %d", initial), got, want)
	}
}

// errBudgetSpent is the error cancelInRoundTwo's Cancel returns.
var errBudgetSpent = errors.New("budget spent")

// cancelInRoundTwo returns a config on its own engine pool whose Cancel, once
// armed, fails the second deepening round of a B-IDJ join with
// errBudgetSpent. arm(true) restarts the poll count; arm(false) disarms.
func cancelInRoundTwo(t *testing.T) (cfg Config, pool *dht.EnginePool, arm func(bool)) {
	t.Helper()
	cfg = testConfig(t, 3, 0.2)
	pool, err := dht.NewEnginePool(cfg.Graph, cfg.Params, cfg.D)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool
	polls, armed := 0, false
	cfg.Cancel = func() error {
		// B-IDJ polls once per round and the walker once per lone target:
		// round one is 1 + |Q| polls, so this fires inside round two.
		if polls++; armed && polls > 1+len(cfg.Q)+2 {
			return errBudgetSpent
		}
		return nil
	}
	return cfg, pool, func(on bool) { polls, armed = 0, on }
}

// assertFailedPrimeStaysFailed opens a stream over a config whose initial
// join fails in its second round. The stream must keep returning that error
// from Prime and Next — not rank a half-finished join, nor re-join as if
// nothing failed — and hold no engine after Release.
func assertFailedPrimeStaysFailed(t *testing.T, open func(Config) (Stream, error)) {
	t.Helper()
	cfg, pool, arm := cancelInRoundTwo(t)
	arm(true)
	st, err := open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.(Primer).Prime(); !errors.Is(err, errBudgetSpent) {
		t.Fatalf("Prime = %v, want the cancel error", err)
	}
	arm(false) // from here on only the kept error can fail a call
	for i := 0; i < 3; i++ {
		if r, ok, err := st.Next(); !errors.Is(err, errBudgetSpent) || ok {
			t.Fatalf("Next %d after a failed initial join = %v, %v, %v", i, r, ok, err)
		}
		if err := st.(Primer).Prime(); !errors.Is(err, errBudgetSpent) {
			t.Fatalf("Prime %d after a failed initial join = %v", i, err)
		}
	}
	st.Release()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d engines outstanding after Release", n)
	}
}

// TestIncrementalFailedRunStaysFailed: a Cancel that fires in the second
// deepening round aborts the initial join with F half-filled. The stream and
// the join state under it must keep returning that error.
func TestIncrementalFailedRunStaysFailed(t *testing.T) {
	assertFailedPrimeStaysFailed(t, func(cfg Config) (Stream, error) {
		return NewIncrementalStream(cfg, BoundY, StreamSpec{Initial: 5})
	})

	// The join state itself is as sticky as the stream over it.
	cfg, pool, arm := cancelInRoundTwo(t)
	arm(true)
	inc, err := NewIncremental(cfg, BoundY)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run(5); !errors.Is(err, errBudgetSpent) {
		t.Fatalf("Run = %v, want the cancel error", err)
	}
	arm(false)
	if _, _, err := inc.Next(); !errors.Is(err, errBudgetSpent) {
		t.Fatalf("Next after a failed Run = %v", err)
	}
	inc.Release()
	if n := pool.Outstanding(); n != 0 {
		t.Fatalf("%d engines outstanding after Release", n)
	}
}

// TestIncrementalObserveAllocatesNothing: a column observation — the F write
// every walked column of every round makes — is array writes while the
// initial join runs and array-indexed sifts once the heap exists; neither
// allocates.
func TestIncrementalObserveAllocatesNothing(t *testing.T) {
	cfg := testConfig(t, 9, 0.2)
	inc, err := NewIncremental(cfg, BoundY)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Release()
	if _, err := inc.Run(10); err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, cfg.Graph.NumNodes())
	l := cfg.D
	observe := func() {
		l++ // longer than any walk so far: every pending cell of the column is rewritten
		inc.b.record(cfg.Q[l%len(cfg.Q)], l, scores, 0.25)
	}
	if n := testing.AllocsPerRun(50, observe); n != 0 {
		t.Fatalf("observation during the initial join: %v allocs, want 0", n)
	}
	if _, ok, err := inc.Next(); err != nil || !ok { // builds the heap
		t.Fatal(ok, err)
	}
	if n := testing.AllocsPerRun(50, observe); n != 0 {
		t.Fatalf("observation after the heap is built: %v allocs, want 0", n)
	}
}
