package join2_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/service"
)

// TestBBJRejoinWorkGate: the PJ re-join stream calls TopK with a growing k on
// one B-BJ joiner. The first call walks every target once and keeps the P×Q
// scores; a later call selects from them and walks nothing, and both
// rankings equal a fresh joiner's. A target set too large
// for the table re-walks. Served through the service as a forced B-BJ
// stream drained to exhaustion, the whole ranking costs exactly |Q| walks
// and the sweeps of one rows-form round.
func TestBBJRejoinWorkGate(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{18, 18, 300}, PIn: 0.25, POut: 0.08, Seed: 7, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := join2.Config{Graph: g, Params: dht.DHTLambda(0.3), D: 8, P: sets[0].Nodes(), Q: sets[1].Nodes()}
	fresh := func(t *testing.T, cfg join2.Config, k int) []join2.Result {
		t.Helper()
		cfg.Counters = nil
		j, err := join2.NewBBJ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// topK runs j.TopK(k), checks it against a fresh joiner and returns the
	// targets it walked.
	topK := func(t *testing.T, j *join2.BBJ, cfg join2.Config, k int) int64 {
		t.Helper()
		before := cfg.Counters.Snapshot().Walks
		got, err := j.TopK(k)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("TopK(%d)", k), got, fresh(t, cfg, k))
		return cfg.Counters.Snapshot().Walks - before
	}

	// The workers=… subtest names outlived the option they named; both run
	// the same case.
	for _, name := range []string{"workers=1", "workers=3"} {
		t.Run(name, func(t *testing.T) {
			cfg := base
			cfg.Counters = &dht.Counters{}
			j, err := join2.NewBBJ(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := topK(t, j, cfg, 5); n != int64(len(cfg.Q)) {
				t.Fatalf("TopK(5) walked %d of %d targets", n, len(cfg.Q))
			}
			if n := topK(t, j, cfg, 6); n != 0 {
				t.Fatalf("TopK(6) after TopK(5) walked %d targets, want 0", n)
			}
		})
	}

	t.Run("no-table", func(t *testing.T) {
		cfg := base
		cfg.Q, cfg.Counters = sets[2].Nodes(), &dht.Counters{}
		if len(cfg.Q) <= 256 {
			t.Fatalf("want more than 256 targets, got %d", len(cfg.Q))
		}
		j, err := join2.NewBBJ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{5, 6} {
			if n := topK(t, j, cfg, k); n != int64(len(cfg.Q)) {
				t.Fatalf("TopK(%d) walked %d of %d targets", k, n, len(cfg.Q))
			}
		}
	})

	t.Run("served", func(t *testing.T) {
		// A 3 000-node YouTube stand-in with two 24-node interest groups: P
		// is a small enough minority that the rows form gathers its tail.
		ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.06, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var rows dht.Counters
		cfg := join2.Config{
			Graph: ds.Graph, Params: dht.DHTLambda(0.2), D: 8, Counters: &rows,
			P: ds.MustSet("1").Take(24).Nodes(), Q: ds.MustSet("2").Take(24).Nodes(),
		}
		direct, err := join2.NewBBJ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.AllPairs()
		if err != nil {
			t.Fatal(err)
		}

		svc := service.New(service.Config{})
		if err := svc.LoadGraph("g", ds.Graph, nil); err != nil {
			t.Fatal(err)
		}
		before := svc.Stats()
		st, err := svc.OpenJoin2(context.Background(), "g", service.SetRef{IDs: cfg.P}, service.SetRef{IDs: cfg.Q},
			service.Query{Params: cfg.Params, D: cfg.D, Algorithm: "B-BJ"})
		if err != nil {
			t.Fatal(err)
		}
		var got []join2.Result
		for {
			r, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, r)
		}
		st.Stop()
		sameResults(t, "drained forced B-BJ", got, want)
		after := svc.Stats()
		if walks := after.Walks - before.Walks; walks != int64(len(cfg.Q)) {
			t.Fatalf("the drain walked %d targets, want |Q| = %d", walks, len(cfg.Q))
		}
		if sweeps := after.EdgeSweeps - before.EdgeSweeps; sweeps != rows.EdgeSweeps {
			t.Fatalf("the drain swept %d times, the direct rows-form B-BJ %d", sweeps, rows.EdgeSweeps)
		}
	})
}

func sameResults(t *testing.T, label string, got, want []join2.Result) {
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
