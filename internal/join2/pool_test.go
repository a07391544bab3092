package join2

import (
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// poolTestConfig builds a small community-graph join config.
func poolTestConfig(t *testing.T) Config {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{60, 60, 40}, PIn: 0.12, POut: 0.04, Seed: 11, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:  g,
		Params: dht.DHTLambda(0.2),
		D:      8,
		P:      sets[0].Nodes(),
		Q:      sets[1].Nodes(),
	}
}

// TestCallerOwnedPoolBitIdentical: every joiner must produce bit-identical
// results when drawing engines from a caller-owned pool and when releasing +
// re-running, versus the self-constructed engines of a plain config.
func TestCallerOwnedPoolBitIdentical(t *testing.T) {
	base := poolTestConfig(t)
	pool, err := dht.NewEnginePool(base.Graph, base.Params, base.D)
	if err != nil {
		t.Fatal(err)
	}

	mk := map[string]func(Config) (Joiner, error){
		"B-BJ":    func(c Config) (Joiner, error) { return NewBBJ(c) },
		"B-IDJ-Y": func(c Config) (Joiner, error) { return NewBIDJY(c) },
		"B-IDJ-X": func(c Config) (Joiner, error) { return NewBIDJX(c) },
		"F-BJ":    func(c Config) (Joiner, error) { return NewFBJ(c) },
		"F-IDJ":   func(c Config) (Joiner, error) { return NewFIDJ(c) },
	}
	for name, newJoiner := range mk {
		ref, err := func() ([]Result, error) {
			j, err := newJoiner(base)
			if err != nil {
				return nil, err
			}
			return j.TopK(25)
		}()
		if err != nil {
			t.Fatalf("%s ref: %v", name, err)
		}
		cfg := base
		cfg.Pool = pool
		j, err := newJoiner(cfg)
		if err != nil {
			t.Fatalf("%s pooled: %v", name, err)
		}
		for round := 0; round < 2; round++ { // second round re-checks out after Release
			got, err := j.TopK(25)
			if err != nil {
				t.Fatalf("%s pooled round %d: %v", name, round, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("%s: %d results, want %d", name, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s round %d rank %d: %+v != %+v", name, round, i, got[i], ref[i])
				}
			}
			if r, ok := j.(interface{ Release() }); ok {
				r.Release()
			} else {
				t.Fatalf("%s: joiner has no Release method", name)
			}
		}
	}
}

// TestIncrementalCallerPool: the PJ-i state must serve identical Next streams
// from a pooled engine and release it afterwards.
func TestIncrementalCallerPool(t *testing.T) {
	base := poolTestConfig(t)
	pool, err := dht.NewEnginePool(base.Graph, base.Params, base.D)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) []Result {
		t.Helper()
		inc, err := NewIncremental(cfg, BoundY)
		if err != nil {
			t.Fatal(err)
		}
		defer inc.Release()
		out, err := inc.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			r, ok, err := inc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		return out
	}
	ref := run(base)
	cfg := base
	cfg.Pool = pool
	got := run(cfg)
	if len(got) != len(ref) {
		t.Fatalf("%d results, want %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("rank %d: %+v != %+v", i, got[i], ref[i])
		}
	}
}

// TestMismatchedPoolRejected: Validate must reject a pool built for another
// configuration instead of walking with wrongly-sized scratch.
func TestMismatchedPoolRejected(t *testing.T) {
	cfg := poolTestConfig(t)
	other := poolTestConfig(t)
	pool, err := dht.NewEnginePool(other.Graph, other.Params, other.D+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool
	if err := cfg.Validate(); err == nil {
		t.Fatal("mismatched pool accepted")
	}
}
