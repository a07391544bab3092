package join2

import (
	"testing"

	"repro/internal/dht"
)

// streamFor opens the named stream strategy over a fresh joiner.
func streamFor(t *testing.T, cfg Config, name string, spec StreamSpec) Stream {
	t.Helper()
	var (
		st  Stream
		err error
	)
	switch name {
	case "inc-X":
		st, err = NewIncrementalStream(cfg, BoundX, spec)
	case "inc-Y":
		st, err = NewIncrementalStream(cfg, BoundY, spec)
	case "rejoin-BIDJY":
		j, jerr := NewBIDJY(cfg)
		if jerr != nil {
			t.Fatal(jerr)
		}
		st, err = NewRejoinStream(j, spec)
	case "rejoin-BBJ":
		j, jerr := NewBBJ(cfg)
		if jerr != nil {
			t.Fatal(jerr)
		}
		st, err = NewRejoinStream(j, spec)
	case "rejoin-FBJ":
		j, jerr := NewFBJ(cfg)
		if jerr != nil {
			t.Fatal(jerr)
		}
		st, err = NewRejoinStream(j, spec)
	case "rejoin-FIDJ":
		j, jerr := NewFIDJ(cfg)
		if jerr != nil {
			t.Fatal(jerr)
		}
		st, err = NewRejoinStream(j, spec)
	case "named-BIDJY": // NewNamedStream upgrades B-IDJ to the incremental path
		st, err = NewNamedStream("B-IDJ-Y", cfg, spec, false)
	default:
		t.Fatalf("unknown stream strategy %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

var streamStrategies = []string{
	"inc-X", "inc-Y", "rejoin-BIDJY", "rejoin-BBJ", "rejoin-FBJ", "rejoin-FIDJ", "named-BIDJY",
}

// TestStreamPrefixEquivalence is the acceptance property of the streaming
// inversion: for every strategy and several prefix lengths m, the first m
// streamed results must be bit-identical — same pairs, same float64 scores
// (== comparison, no tolerance), same order — to the one-shot top-m of the
// reference joiner.
func TestStreamPrefixEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := testConfig(t, seed, 0.2)
		// A 12×12 candidate space keeps the full-drain × strategies ×
		// budgets sweep fast enough for the -race CI job.
		cfg.P = cfg.P[:12]
		cfg.Q = cfg.Q[:12]
		ref, err := NewBIDJY(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range streamStrategies {
			for _, initial := range []int{1, 3, 50} {
				st := streamFor(t, cfg, name, StreamSpec{Initial: initial})
				total := cfg.MaxPairs()
				streamed := make([]Result, 0, total)
				for {
					r, ok, err := st.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					streamed = append(streamed, r)
				}
				st.Release()
				if len(streamed) != total {
					t.Fatalf("%s seed=%d init=%d: streamed %d of %d pairs",
						name, seed, initial, len(streamed), total)
				}
				for _, m := range []int{1, 2, 5, 17, 60, total} {
					if m > total {
						continue
					}
					want, err := ref.TopK(m)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						got := streamed[i]
						if got.Pair != want[i].Pair || got.Score != want[i].Score {
							t.Fatalf("%s seed=%d init=%d m=%d rank %d: streamed %+v, one-shot %+v",
								name, seed, initial, m, i, got, want[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamReleaseReturnsPoolEngines: a stream abandoned mid-run must
// return every engine it checked out of a caller-owned pool — the
// release-on-stop invariant the facade's cancellation path depends on.
func TestStreamReleaseReturnsPoolEngines(t *testing.T) {
	cfg := testConfig(t, 3, 0.2)
	pool, err := dht.NewEnginePool(cfg.Graph, cfg.Params, cfg.D)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pool = pool
	for _, name := range streamStrategies {
		st := streamFor(t, cfg, name, StreamSpec{Initial: 4})
		// Drain a short prefix, then abandon mid-stream.
		for i := 0; i < 6; i++ {
			if _, ok, err := st.Next(); err != nil || !ok {
				t.Fatalf("%s: next %d = ok=%v err=%v", name, i, ok, err)
			}
		}
		st.Release()
		st.Release() // idempotent
		if n := pool.Outstanding(); n != 0 {
			t.Fatalf("%s: %d engines still checked out after Release", name, n)
		}
	}
}

// TestRejoinFailedRunStaysFailed: the re-join stream keeps a failed initial
// join's error like the incremental one, whether it is named directly or
// chosen by NewNamedStream for a batch request.
func TestRejoinFailedRunStaysFailed(t *testing.T) {
	t.Run("rejoin", func(t *testing.T) {
		assertFailedPrimeStaysFailed(t, func(cfg Config) (Stream, error) {
			j, err := NewBIDJY(cfg)
			if err != nil {
				return nil, err
			}
			return NewRejoinStream(j, StreamSpec{Initial: 5})
		})
	})
	t.Run("named-batch", func(t *testing.T) {
		assertFailedPrimeStaysFailed(t, func(cfg Config) (Stream, error) {
			return NewNamedStream("B-IDJ-Y", cfg, StreamSpec{Initial: 5}, true)
		})
	})
}

// TestStreamRefetchCounting: pulls beyond the initial batch must be counted
// exactly once each for the incremental strategy (one Next per refetch) and
// once per re-join for the rejoin strategy.
func TestStreamRefetchCounting(t *testing.T) {
	cfg := testConfig(t, 5, 0.2)
	var incRefetches int64
	st, err := NewIncrementalStream(cfg, BoundY, StreamSpec{Initial: 4, Refetches: &incRefetches})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("next %d failed: ok=%v err=%v", i, ok, err)
		}
	}
	st.Release()
	if incRefetches != 6 {
		t.Fatalf("incremental refetches = %d, want 6", incRefetches)
	}

	j, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rjRefetches int64
	st, err = NewRejoinStream(j, StreamSpec{Initial: 4, Refetches: &rjRefetches, Grow: growDouble})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok, err := st.Next(); err != nil || !ok {
			t.Fatalf("rejoin next %d failed: ok=%v err=%v", i, ok, err)
		}
	}
	st.Release()
	// Budgets 4 → 8 → 16: two re-joins cover the first 10 pulls.
	if rjRefetches != 2 {
		t.Fatalf("rejoin refetches = %d, want 2", rjRefetches)
	}
}

// TestStreamExhaustionIsSticky: a drained stream keeps reporting ok=false.
func TestStreamExhaustionIsSticky(t *testing.T) {
	cfg := testConfig(t, 2, 0.2)
	cfg.P = cfg.P[:2]
	cfg.Q = cfg.Q[:2]
	st, err := NewIncrementalStream(cfg, BoundY, StreamSpec{Initial: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	n := 0
	for {
		_, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("drained %d of 4 pairs", n)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := st.Next(); ok || err != nil {
			t.Fatalf("post-exhaustion next = ok=%v err=%v", ok, err)
		}
	}
}
