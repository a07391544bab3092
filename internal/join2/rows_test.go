package join2

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

func sameRanking(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s rank %d: %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestRowsFormJoinersMatchFullForm runs every backward joiner on a graph
// large enough that the rows form gathers both tail steps (the counters
// prove it: B-BJ's walks equal, and its sweeps fall below, those of the
// kernel's full-column form over the same targets) and demands from each the
// full ranking of the width-1 dense engine's columns, for both walk kinds.
func TestRowsFormJoinersMatchFullForm(t *testing.T) {
	eachLaneBody(t, testRowsFormJoinersMatchFullForm)
}

func testRowsFormJoinersMatchFullForm(t *testing.T) {
	// Two BFS-grown interest groups of a 3 000-node YouTube stand-in
	// (preferential attachment plus triadic closure): both hop sets of P
	// stay below half the edges and walks of three or more steps go dense.
	ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.06, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Graph:  ds.Graph,
		Params: dht.DHTLambda(0.2),
		D:      8,
		P:      ds.MustSet("1").Take(24).Nodes(),
		Q:      ds.MustSet("2").Take(24).Nodes(),
	}
	for _, kind := range []dht.Kind{dht.FirstHit, dht.Reach} {
		cfg := base
		if kind == dht.Reach {
			cfg.Params, cfg.Measure = dht.PPR(0.5), dht.Reach
		}
		all := cfg.MaxPairs()
		want := denseRanking(t, cfg)
		var fullWork, rowsWork dht.Counters
		be, err := dht.NewBatchEngine(cfg.Graph, cfg.Params, cfg.D, dht.DefaultBatchWidth)
		if err != nil {
			t.Fatal(err)
		}
		be.Sink = &fullWork
		for base := 0; base < len(cfg.Q); base += be.W {
			be.BackWalkScoresBatch(kind, cfg.Q[base:min(base+be.W, len(cfg.Q))], cfg.D)
		}
		rows := cfg
		rows.Counters = &rowsWork
		if j, err := NewBBJ(rows); err != nil {
			t.Fatal(err)
		} else if _, err := j.TopK(1); err != nil {
			t.Fatal(err)
		}
		if rowsWork.Walks != fullWork.Walks || rowsWork.EdgeSweeps+2*3 > fullWork.EdgeSweeps {
			t.Fatalf("%v: rows-form B-BJ did %+v against the full form's %+v: want equal walks and both tail steps of all 3 chunks gathered", kind, rowsWork, fullWork)
		}
		c := cfg
		joiners := map[string]func(Config) (Joiner, error){
			"B-BJ":    func(c Config) (Joiner, error) { return NewBBJ(c) },
			"B-IDJ-X": func(c Config) (Joiner, error) { return NewBIDJX(c) },
			"B-IDJ-Y": func(c Config) (Joiner, error) { return NewBIDJY(c) },
		}
		for name, mk := range joiners {
			j, err := mk(c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := j.TopK(all)
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, name, got, want)
		}
		s, err := NewIncrementalStream(c, BoundY, StreamSpec{Initial: 50})
		if err != nil {
			t.Fatal(err)
		}
		var drained []Result
		for {
			r, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			drained = append(drained, r)
		}
		s.Release()
		sameRanking(t, "incremental stream, full drain", drained, want)
	}
}

// denseRanking is the full ranking of cfg's pairs from the columns of the
// width-1 ForceDense engine, the reference every walk form must equal.
func denseRanking(t *testing.T, cfg Config) []Result {
	t.Helper()
	dense, err := dht.NewBatchEngine(cfg.Graph, cfg.Params, cfg.D, 1)
	if err != nil {
		t.Fatal(err)
	}
	dense.ForceDense = true
	top := pqueue.NewTopK[Pair](cfg.MaxPairs())
	for _, q := range cfg.Q {
		addColumn(top, cfg.P, q, dense.BackWalkScoresBatch(cfg.Measure, []graph.NodeID{q}, cfg.D)[0])
	}
	return collect(top)
}
