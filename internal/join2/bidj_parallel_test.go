package join2

import (
	"testing"

	"repro/internal/dht"
)

// TestParallelBIDJMatchesSerial: the worker-pool deepening rounds must be
// invisible in the results — identical ranking (including tie order) and
// identical per-round pruning statistics to the serial B-IDJ.
func TestParallelBIDJMatchesSerial(t *testing.T) {
	for _, variant := range []BoundVariant{BoundX, BoundY} {
		cfg := testConfig(t, 61, 0.5)
		serial, err := NewBIDJ(cfg, variant)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serial.TopK(25)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := append([]IterStat(nil), serial.Stats...)
		for _, workers := range []int{2, 4, -1} {
			pcfg := cfg
			pcfg.Workers = workers
			par, err := NewBIDJ(pcfg, variant)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.TopK(25)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("variant %v workers=%d: %d results, want %d", variant, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("variant %v workers=%d rank %d: %v vs %v", variant, workers, i, got[i], want[i])
				}
			}
			if len(par.Stats) != len(wantStats) {
				t.Fatalf("variant %v workers=%d: %d rounds, want %d", variant, workers, len(par.Stats), len(wantStats))
			}
			for i := range wantStats {
				if par.Stats[i] != wantStats[i] {
					t.Fatalf("variant %v workers=%d round %d: %+v vs %+v", variant, workers, i, par.Stats[i], wantStats[i])
				}
			}
		}
	}
}

// TestParallelBIDJReachMeasure covers the PPR/reach path under workers.
func TestParallelBIDJReachMeasure(t *testing.T) {
	cfg := testConfig(t, 19, 0.2)
	cfg.Params = dht.PPR(0.5)
	cfg.Measure = dht.Reach
	serial, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.TopK(15)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	par, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.TopK(15)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestBBJWorkersConfig: Config.Workers routes B-BJ through the pool with
// identical results, and repeated TopK calls on one joiner stay stable.
func TestBBJWorkersConfig(t *testing.T) {
	cfg := testConfig(t, 23, 0.3)
	serial, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.TopK(20)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		got, err := par.TopK(20)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d rank %d: %v vs %v", rep, i, got[i], want[i])
			}
		}
	}
}

// TestJoinerCountersAggregate: a shared Counters sink must see the walk work
// of both serial and parallel joins.
func TestJoinerCountersAggregate(t *testing.T) {
	cfg := testConfig(t, 29, 0.4)
	var ctrs dht.Counters
	cfg.Counters = &ctrs
	j, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.TopK(10); err != nil {
		t.Fatal(err)
	}
	serialSnap := ctrs.Snapshot()
	if serialSnap.Walks == 0 || serialSnap.EdgeSweeps+serialSnap.FrontierEdges == 0 {
		t.Fatalf("serial counters empty: %+v", serialSnap)
	}
	ctrs.Reset()
	cfg.Workers = 3
	jp, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jp.TopK(10); err != nil {
		t.Fatal(err)
	}
	parSnap := ctrs.Snapshot()
	if parSnap.Walks != serialSnap.Walks {
		t.Fatalf("parallel walk count %d != serial %d", parSnap.Walks, serialSnap.Walks)
	}
}

// TestRepeatedTopKStable: cached engines and Y tables across TopK calls must
// not change results — the PJ re-join stream depends on the top-m being a
// prefix of the top-(m+1).
func TestRepeatedTopKStable(t *testing.T) {
	cfg := testConfig(t, 31, 0.5)
	j, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := j.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := j.TopK(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigger) < len(first) {
		t.Fatalf("topk shrank: %d then %d", len(first), len(bigger))
	}
	for i := range first {
		if bigger[i] != first[i] {
			t.Fatalf("prefix violated at %d: %v vs %v", i, bigger[i], first[i])
		}
	}
	again, err := j.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("repeat drifted at %d: %v vs %v", i, again[i], first[i])
		}
	}
}

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
