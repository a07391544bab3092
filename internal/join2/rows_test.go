package join2

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dht"
	"repro/internal/graph"
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

// TestRestrictedColumnNeverReachesMemo: a memo outlives the joiner that
// filled it and serves joins over other source sets, so every column in it
// must be a full one. (P₁, Q) runs through B-BJ, publishing to a shared memo;
// (P₂, Q) with P₂ ∩ P₁ = ∅ is then served from that memo and must equal the
// memo-less B-BJ ranking — which it cannot if a column restricted to the
// rows of P₁ was ever published. An incremental stream walks its
// refinements in the rows form, so it must publish nothing at all: drained
// past its initial batch with the shared memo in its config, it leaves the
// memo empty and unread.
func TestRestrictedColumnNeverReachesMemo(t *testing.T) {
	base := testConfig(t, 7, 0.3)
	taken := make(map[graph.NodeID]bool)
	for _, u := range append(append([]graph.NodeID(nil), base.P...), base.Q...) {
		taken[u] = true
	}
	var p2 []graph.NodeID // the third community: disjoint from P₁ and Q
	for u := 0; u < base.Graph.NumNodes(); u++ {
		if !taken[graph.NodeID(u)] {
			p2 = append(p2, graph.NodeID(u))
		}
	}
	other := base
	other.P, other.MemoSize = p2, -1
	ref, err := NewBBJ(other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.AllPairs()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("B-BJ", func(t *testing.T) {
		memo := dht.NewScoreMemo(64)
		first := base
		first.Memo = memo
		j, err := NewBBJ(first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.TopK(5); err != nil {
			t.Fatal(err)
		}
		if memo.Len() == 0 {
			t.Fatal("the first join published nothing: the test would pass vacuously")
		}
		hits := memo.Hits()
		second := other
		second.Memo, second.MemoSize = memo, 0
		if j, err = NewBBJ(second); err != nil {
			t.Fatal(err)
		}
		got, err := j.AllPairs()
		if err != nil {
			t.Fatal(err)
		}
		if memo.Hits() == hits {
			t.Fatal("the second join was served no column from the shared memo")
		}
		sameRanking(t, "(P₂, Q) from the shared memo", got, want)
	})
	t.Run("incremental", func(t *testing.T) {
		memo := dht.NewScoreMemo(64)
		var work dht.Counters
		cfg := base
		cfg.Memo, cfg.Counters = memo, &work
		s, err := NewIncrementalStream(cfg, BoundY, StreamSpec{Initial: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		if err := s.(Primer).Prime(); err != nil {
			t.Fatal(err)
		}
		initial := work.Walks
		for i := 0; i < 40; i++ {
			if _, ok, err := s.Next(); err != nil || !ok {
				t.Fatalf("pull %d: ok=%v err=%v", i, ok, err)
			}
		}
		if work.Walks == initial {
			t.Fatal("no pull walked past the initial batch: the test would pass vacuously")
		}
		if n, hits, misses := memo.Len(), memo.Hits(), memo.Misses(); n+int(hits+misses) != 0 {
			t.Fatalf("an incremental stream used the caller's memo: %d columns, %d hits, %d misses", n, hits, misses)
		}
	})
}

// TestRowsFormJoinersMatchFullForm runs every backward joiner on a graph
// large enough that the rows form gathers both tail steps (the counters
// prove it: same walks, fewer sweeps than the full-column B-BJ) and demands
// the full ranking of the memo-publishing, full-column B-BJ from each, at
// every worker count and for both walk kinds.
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
		var fullWork, rowsWork dht.Counters
		full := cfg
		full.MemoSize, full.Counters = 64, &fullWork // |Q| fits: every column is published, so walked in full
		ref, err := NewBBJ(full)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.AllPairs()
		if err != nil {
			t.Fatal(err)
		}
		rows := cfg
		rows.MemoSize, rows.Counters = -1, &rowsWork // nothing is published: the rows form
		if j, err := NewBBJ(rows); err != nil {
			t.Fatal(err)
		} else if _, err := j.TopK(1); err != nil {
			t.Fatal(err)
		}
		if rowsWork.Walks != fullWork.Walks || rowsWork.EdgeSweeps+2*3 > fullWork.EdgeSweeps {
			t.Fatalf("%v: rows-form B-BJ did %+v against the full form's %+v: want equal walks and both tail steps of all 3 chunks gathered", kind, rowsWork, fullWork)
		}
		for _, workers := range []int{1, 3, -1} {
			c := cfg
			c.Workers, c.MemoSize = workers, -1
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
}
