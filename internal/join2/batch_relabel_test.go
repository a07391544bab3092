package join2

import (
	"testing"

	"repro/internal/graph"
)

// TestWorkersBitIdenticalTopK: every joiner must return *exactly* the same
// results (score bits included) at any worker count — the walker's fan-out,
// chunk claiming and partial-heap merge are invisible in the ranking.
func TestWorkersBitIdenticalTopK(t *testing.T) {
	cfg := testConfig(t, 41, 0.3)
	want := map[string][]Result{}
	for _, j := range allJoiners(t, cfg) {
		res, err := j.TopK(20)
		if err != nil {
			t.Fatalf("%s serial: %v", j.Name(), err)
		}
		want[j.Name()] = res
	}
	for _, workers := range []int{2, 3, -1} {
		wcfg := cfg
		wcfg.Workers = workers
		for _, j := range allJoiners(t, wcfg) {
			got, err := j.TopK(20)
			if err != nil {
				t.Fatalf("%s workers %d: %v", j.Name(), workers, err)
			}
			ref := want[j.Name()]
			if len(got) != len(ref) {
				t.Fatalf("%s workers %d: %d results, want %d", j.Name(), workers, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s workers %d rank %d: %+v != serial %+v", j.Name(), workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// relabelings returns both locality orderings of the config's graph.
func relabelings(cfg Config) map[string]*graph.Relabeling {
	return map[string]*graph.Relabeling{
		"degree": graph.DegreeOrder(cfg.Graph),
		"bfs":    graph.BFSOrder(cfg.Graph),
	}
}

// TestRelabelRoundTripsTopK: running any joiner on the locality-relabeled
// graph with mapped node sets and mapping the result ids back must
// reproduce the original top-k (scores to fp-reordering tolerance, pair
// sets up to equal-score permutations) — the id map inverts cleanly on
// every joiner's output.
func TestRelabelRoundTripsTopK(t *testing.T) {
	cfg := testConfig(t, 55, 0.3)
	want := map[string][]Result{}
	for _, j := range allJoiners(t, cfg) {
		res, err := j.TopK(15)
		if err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
		want[j.Name()] = res
	}
	for order, r := range relabelings(cfg) {
		rcfg := cfg
		rcfg.Graph = r.Apply(cfg.Graph)
		rcfg.P = r.MapToNew(cfg.P)
		rcfg.Q = r.MapToNew(cfg.Q)
		if err := rcfg.Validate(); err != nil {
			t.Fatalf("%s: relabeled config invalid: %v", order, err)
		}
		for _, j := range allJoiners(t, rcfg) {
			res, err := j.TopK(15)
			if err != nil {
				t.Fatalf("%s/%s: %v", order, j.Name(), err)
			}
			back := make([]Result, len(res))
			for i, rr := range res {
				back[i] = Result{
					Pair:  Pair{P: r.ToOld(rr.Pair.P), Q: r.ToOld(rr.Pair.Q)},
					Score: rr.Score,
				}
			}
			assertSameTopK(t, order+"/"+j.Name(), back, want[j.Name()])
		}
	}
}

// TestRelabelRoundTripsIncremental extends the round-trip to the PJ-i
// stream, whose ids surface one pair at a time through Next.
func TestRelabelRoundTripsIncremental(t *testing.T) {
	cfg := testConfig(t, 56, 0.2)
	run := func(c Config, r *graph.Relabeling) []Result {
		t.Helper()
		inc, err := NewIncremental(c, BoundY)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inc.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			rr, ok, err := inc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			res = append(res, rr)
		}
		if r != nil {
			for i := range res {
				res[i].Pair = Pair{P: r.ToOld(res[i].Pair.P), Q: r.ToOld(res[i].Pair.Q)}
			}
		}
		return res
	}
	want := run(cfg, nil)
	for order, r := range relabelings(cfg) {
		rcfg := cfg
		rcfg.Graph = r.Apply(cfg.Graph)
		rcfg.P = r.MapToNew(cfg.P)
		rcfg.Q = r.MapToNew(cfg.Q)
		assertSameTopK(t, order+"/incremental", run(rcfg, r), want)
	}
}
