package join2

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dht"
)

// reachConfig is testConfig switched to Personalized PageRank.
func reachConfig(t testing.TB, seed int64, c float64) Config {
	t.Helper()
	cfg := testConfig(t, seed, 0.2)
	cfg.Params = dht.PPR(c)
	cfg.D = cfg.Params.StepsForEpsilon(1e-7)
	cfg.Measure = dht.Reach
	return cfg
}

// TestReachAllAlgorithmsAgree extends the central equivalence test to the
// reach measure (the paper's §VIII extension): all five 2-way algorithms
// must agree when joining over Personalized PageRank.
func TestReachAllAlgorithmsAgree(t *testing.T) {
	for _, c := range []float64{0.3, 0.6} {
		cfg := reachConfig(t, 31, c)
		ref, err := NewBBJ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.TopK(20)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range allJoiners(t, cfg) {
			got, err := j.TopK(20)
			if err != nil {
				t.Fatalf("%s: %v", j.Name(), err)
			}
			assertSameTopK(t, j.Name()+"/reach", got, want)
		}
	}
}

// TestReachIncrementalMatchesBatch extends the incremental-stream test to
// the reach measure, from initial batches of several sizes.
func TestReachIncrementalMatchesBatch(t *testing.T) {
	const k = 60
	cfg := reachConfig(t, 47, 0.5)
	ref, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, initial := range []int{1, 5, 50} {
		inc, err := NewIncremental(cfg, BoundY)
		if err != nil {
			t.Fatal(err)
		}
		got, err := inc.Run(initial)
		if err != nil {
			t.Fatal(err)
		}
		for len(got) < k {
			r, ok, err := inc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, r)
		}
		inc.Release()
		assertSameTopK(t, fmt.Sprintf("Incremental/reach, initial %d", initial), got, want)
	}
}

// TestReachScoresNonNegative: PPR scores are probabilities scaled by 1−c,
// so every score lies in [0, 1).
func TestReachScoresNonNegative(t *testing.T) {
	cfg := reachConfig(t, 3, 0.4)
	j, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.TopK(cfg.MaxPairs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score < 0 || r.Score >= 1 || math.IsNaN(r.Score) {
			t.Fatalf("PPR score out of range: %v", r)
		}
	}
}
