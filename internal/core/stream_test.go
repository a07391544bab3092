package core

import (
	"testing"

	"repro/internal/dht"
	"repro/internal/rankjoin"
)

// streamer is the Stream face shared by all four n-way algorithms.
type streamer interface {
	Stream() (TupleStream, error)
}

// nwayStreamers instantiates the streaming form of every n-way algorithm.
func nwayStreamers(t *testing.T, spec Spec, m int) map[string]streamer {
	t.Helper()
	nl, err := NewNL(spec)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := NewAP(spec)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewPJ(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	pji, err := NewPJI(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]streamer{"NL": nl, "AP": ap, "PJ": pj, "PJ-i": pji}
}

// TestTupleStreamPrefixEquivalence: for every n-way algorithm, the first m
// streamed answers must be bit-identical (same tuples, same float64 scores,
// same order) to a one-shot top-m Run — the n-way acceptance property.
func TestTupleStreamPrefixEquivalence(t *testing.T) {
	g, sets := testWorld(t, 11, 7, 7, 7)
	spec := chainSpec(g, sets[:3], rankjoin.Min, 1)
	for name, alg := range nwayStreamers(t, spec, 5) {
		st, err := alg.Stream()
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Answer
		for {
			a, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			streamed = append(streamed, a)
		}
		st.Release()
		if len(streamed) == 0 {
			t.Fatalf("%s: empty stream", name)
		}
		for _, m := range []int{1, 3, 10, len(streamed)} {
			if m > len(streamed) {
				continue
			}
			// A fresh algorithm value per prefix: Run and Stream share
			// per-run state (Stats), so the reference run
			// must not inherit the drained stream's.
			ms := spec
			ms.K = m
			var (
				want []Answer
				err  error
			)
			switch name {
			case "NL":
				ref, _ := NewNL(ms)
				want, err = ref.Run()
			case "AP":
				ref, _ := NewAP(ms)
				want, err = ref.Run()
			case "PJ":
				ref, _ := NewPJ(ms, 5)
				want, err = ref.Run()
			case "PJ-i":
				ref, _ := NewPJI(ms, 5)
				want, err = ref.Run()
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != m {
				t.Fatalf("%s: one-shot top-%d returned %d answers", name, m, len(want))
			}
			for i := range want {
				got := streamed[i]
				if got.Score != want[i].Score || answerKey(got.Nodes) != answerKey(want[i].Nodes) {
					t.Fatalf("%s m=%d rank %d: streamed %v (%v), one-shot %v (%v)",
						name, m, i, got.Nodes, got.Score, want[i].Nodes, want[i].Score)
				}
			}
		}
	}
}

// TestTupleStreamReleasesPool: abandoning a PJ-i stream mid-run must return
// every engine to a caller-owned pool, and Release must be idempotent.
func TestTupleStreamReleasesPool(t *testing.T) {
	g, sets := testWorld(t, 4, 8, 8, 8)
	spec := chainSpec(g, sets[:3], rankjoin.Min, 4)
	pool, err := dht.NewEnginePool(spec.Graph, spec.Params, spec.D)
	if err != nil {
		t.Fatal(err)
	}
	spec.Pool = pool
	for _, m := range []int{1, 5} {
		for name, alg := range nwayStreamers(t, spec, m) {
			if name == "NL" {
				continue // NL builds its own engine; nothing pooled
			}
			st, err := alg.Stream()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := st.Next(); err != nil || !ok {
				t.Fatalf("%s: first pull failed: ok=%v err=%v", name, ok, err)
			}
			st.Release()
			st.Release()
			if n := pool.Outstanding(); n != 0 {
				t.Fatalf("%s m=%d: %d engines still checked out after Release", name, m, n)
			}
		}
	}
}

// TestTupleStreamEarlyEmission: the incremental rank join must confirm the
// first answer without draining its sources completely — PairsPulled after
// one pull must be well below the full drain's.
func TestTupleStreamEarlyEmission(t *testing.T) {
	g, sets := testWorld(t, 9, 10, 10, 10)
	spec := chainSpec(g, sets[:3], rankjoin.Min, 1)
	alg, err := NewPJI(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := alg.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	if _, ok, err := st.Next(); err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	afterFirst := alg.Stats.PairsPulled

	full, err := NewPJI(spec, 10)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := full.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := fs.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	fs.Release()
	if afterFirst >= full.Stats.PairsPulled {
		t.Fatalf("first answer pulled %d pairs, full drain %d — no early emission",
			afterFirst, full.Stats.PairsPulled)
	}
}
