package join2

import (
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

func BenchmarkBBJTop50(b *testing.B) { benchBBJ(b, 0) }

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

// BenchmarkBBJWorkers measures B-BJ fanned out over GOMAXPROCS workers
// against BenchmarkBBJTop50.
func BenchmarkBBJWorkers(b *testing.B) { benchBBJ(b, -1) }

// benchBBJ times a top-50 B-BJ on a fresh joiner per iteration, drawing its
// engines from one pool: a repeated TopK on one joiner would select from the
// scores it kept and walk nothing.
func benchBBJ(b *testing.B, workers int) {
	cfg := benchConfig(b)
	pool, err := dht.NewEnginePool(cfg.Graph, cfg.Params, cfg.D)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Workers, cfg.Pool = workers, pool
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

// BenchmarkBIDJYCold is the repository benchmark's join2_cold request
// without the server around it: a fresh B-IDJ-Y top-50 join per iteration
// over a different 60×60 pair of interest groups of the 25 000-node YouTube
// stand-in, on pooled engines as the serving layer runs it. Nothing repeats,
// so the time is walks; the reported counters are per join and — unlike
// ns/op — identical on every machine.
func BenchmarkBIDJYCold(b *testing.B) {
	ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var groups []*graph.NodeSet
	for _, s := range ds.Sets {
		if s.Len() >= 60 {
			groups = append(groups, s.Take(60))
		}
	}
	base := Config{Graph: ds.Graph, Params: dht.DHTLambda(0.2), D: 8}
	pool, err := dht.NewEnginePool(base.Graph, base.Params, base.D)
	if err != nil {
		b.Fatal(err)
	}
	var work dht.Counters
	base.Pool, base.Counters = pool, &work
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.P = groups[i%len(groups)].Nodes()
		cfg.Q = groups[(7*i+3)%len(groups)].Nodes()
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
