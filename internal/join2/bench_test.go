package join2

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
)

// benchConfig: a Yeast-scale community graph with 100-node join sets.
func benchConfig(b *testing.B) Config {
	b.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{800, 800, 800}, PIn: 0.008, POut: 0.008, Seed: 3, MinOutLink: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Graph:  g,
		Params: dht.DHTLambda(0.2),
		D:      8,
		P:      sets[0].Nodes()[:100],
		Q:      sets[1].Nodes()[:100],
	}
}

func benchJoiner(b *testing.B, mk func(Config) (Joiner, error), k int) {
	cfg := benchConfig(b)
	j, err := mk(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.TopK(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBBJTop50 times a top-50 B-BJ on a fresh joiner per iteration,
// drawing its engines from one pool: a repeated TopK on one joiner would
// select from the scores it kept and walk nothing.
func BenchmarkBBJTop50(b *testing.B) {
	cfg := benchConfig(b)
	pool, err := dht.NewEnginePool(cfg.Graph, cfg.Params, cfg.D)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Pool = pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := NewBBJ(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.TopK(50); err != nil {
			b.Fatal(err)
		}
		j.Release()
	}
}

func BenchmarkBIDJXTop50(b *testing.B) {
	benchJoiner(b, func(c Config) (Joiner, error) { return NewBIDJX(c) }, 50)
}

func BenchmarkBIDJYTop50(b *testing.B) {
	benchJoiner(b, func(c Config) (Joiner, error) { return NewBIDJY(c) }, 50)
}

// BenchmarkIncrementalNext isolates getNextNodePair on the F structure: one
// initial top-m join (untimed), then streaming further pairs. When b.N
// outgrows the candidate space, a fresh join state is prepared off the
// clock.
func BenchmarkIncrementalNext(b *testing.B) {
	cfg := benchConfig(b)
	fresh := func() *Incremental {
		inc, err := NewIncremental(cfg, BoundY)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := inc.Run(50); err != nil {
			b.Fatal(err)
		}
		return inc
	}
	inc := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := inc.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			inc = fresh()
			b.StartTimer()
		}
	}
}

// BenchmarkRejoinNext is the PJ-style alternative: every additional pair is
// a from-scratch top-(m+1) join. Compare with BenchmarkIncrementalNext.
func BenchmarkRejoinNext(b *testing.B) {
	cfg := benchConfig(b)
	j, err := NewBIDJY(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := j.TopK(51 + i%10)
		if err != nil {
			b.Fatal(err)
		}
		_ = res[len(res)-1]
	}
}

// bidjyCold is the join2_cold request's world: the 25 000-node YouTube
// stand-in, DHTλ(0.2) at d = 8 on one engine pool, and a cold 60×60 pair of
// interest groups per index i (pair(i) repeats only after the group count).
func bidjyCold(tb testing.TB) (base Config, pair func(i int) (p, q []graph.NodeID)) {
	ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var groups []*graph.NodeSet
	for _, s := range ds.Sets {
		if s.Len() >= 60 {
			groups = append(groups, s.Take(60))
		}
	}
	base = Config{Graph: ds.Graph, Params: dht.DHTLambda(0.2), D: 8}
	if base.Pool, err = dht.NewEnginePool(base.Graph, base.Params, base.D); err != nil {
		tb.Fatal(err)
	}
	return base, func(i int) (p, q []graph.NodeID) {
		return groups[i%len(groups)].Nodes(), groups[(7*i+3)%len(groups)].Nodes()
	}
}

// BenchmarkBIDJYCold is the repository benchmark's join2_cold request
// without the server around it: a fresh B-IDJ-Y top-50 join per iteration
// over a different 60×60 pair of interest groups of the 25 000-node YouTube
// stand-in, on pooled engines as the serving layer runs it. Nothing repeats,
// so the time is walks; the reported counters are per join and — unlike
// ns/op — identical on every machine.
func BenchmarkBIDJYCold(b *testing.B) {
	base, pair := bidjyCold(b)
	var work dht.Counters
	base.Counters = &work
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.P, cfg.Q = pair(i)
		j, err := NewBIDJY(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := j.TopK(50); err != nil {
			b.Fatal(err)
		}
		j.Release()
	}
	n := float64(b.N)
	b.ReportMetric(float64(work.Walks)/n, "walks/op")
	b.ReportMetric(float64(work.EdgeSweeps)/n, "sweeps/op")
	b.ReportMetric(float64(work.FrontierEdges)/n, "frontier-edges/op")
}

// TestBIDJYColdWorkGate runs BenchmarkBIDJYCold's first 32 pairs once each
// and pins the B-IDJ-Y walk work per join: the counters are exact on every
// machine, so a change that walks more targets or sweeps the graph more
// often fails here rather than as noise in a timing. Walks are pinned
// exactly (the deepening rounds are the paper's Algorithm 2, so the targets
// walked per round are fixed); sweeps are bounded. Every ranking must equal —
// pairs, float64 scores and order — forced B-BJ's on the same pair.
func TestBIDJYColdWorkGate(t *testing.T) {
	const pairs = 32
	// 164.66 walks and 20.50 sweeps per join; 22.56 sweeps while width-1
	// rounds walked the full form.
	const wantWalks, maxSweeps = 5269, 656 // over all pairs
	base, pair := bidjyCold(t)
	var work dht.Counters
	for i := 0; i < pairs; i++ {
		cfg := base
		cfg.P, cfg.Q = pair(i)
		cfg.Counters = &work
		j, err := NewBIDJY(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := j.TopK(50)
		j.Release()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Counters = nil
		ref, err := NewBBJ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.TopK(50)
		ref.Release()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("pair %d: B-IDJ-Y ranked %v, B-BJ %v", i, got, want)
		}
	}
	t.Logf("per join: %.2f walks, %.2f sweeps, %.0f frontier edges (totals %d, %d, %d)",
		float64(work.Walks)/pairs, float64(work.EdgeSweeps)/pairs, float64(work.FrontierEdges)/pairs,
		work.Walks, work.EdgeSweeps, work.FrontierEdges)
	if work.Walks != wantWalks || work.EdgeSweeps > maxSweeps {
		t.Fatalf("B-IDJ-Y did %d walks and %d sweeps over %d joins, want %d and at most %d",
			work.Walks, work.EdgeSweeps, pairs, wantWalks, maxSweeps)
	}
}
