package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/join2"
)

// poolOutstanding sums the checked-out engines of every live session pool.
func poolOutstanding(svc *Service) int64 {
	n, _ := svc.Outstanding()
	return n
}

// TestOpenJoin2MatchesBatch: draining the streaming handle must reproduce
// the batch Join2 bit-identically, and Stop must publish the drained prefix
// so the next batch request is a cache hit.
func TestOpenJoin2MatchesBatch(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}

	st, err := svc.OpenJoin2(context.Background(), "g", p, q, Query{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := st.NextK(10)
	if err != nil {
		t.Fatal(err)
	}
	st.Stop()
	if len(streamed) != 10 {
		t.Fatalf("streamed %d of 10", len(streamed))
	}
	if n := poolOutstanding(svc); n != 0 {
		t.Fatalf("%d engines outstanding after Stop", n)
	}

	// An independent service is the uncached reference.
	ref := New(Config{})
	if err := ref.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Join2(context.Background(), "g", p, q, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if streamed[i] != want[i] {
			t.Fatalf("rank %d: streamed %+v, batch %+v", i, streamed[i], want[i])
		}
	}

	// The drained prefix now serves batch requests for any k ≤ 10.
	before := svc.Stats().ResultHits
	got, err := svc.Join2(context.Background(), "g", p, q, 7, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultHits != before+1 {
		t.Fatal("prefix published by the stream was not served from cache")
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cached rank %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestJoin2PrefixCache: one cache entry serves every k up to its length,
// longer requests extend it, and an exhausted prefix serves any k.
func TestJoin2PrefixCache(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	p, q := SetRef{Name: sets[0].Name}, SetRef{Name: sets[1].Name}
	ctx := context.Background()

	first, err := svc.Join2(ctx, "g", p, q, 8, Query{})
	if err != nil {
		t.Fatal(err)
	}
	stats := svc.Stats()
	if stats.ResultMisses != 1 || stats.ResultHits != 0 {
		t.Fatalf("after first call: %+v", stats)
	}
	shorter, err := svc.Join2(ctx, "g", p, q, 5, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultHits != 1 {
		t.Fatal("k=5 after k=8 was not a prefix hit")
	}
	for i := range shorter {
		if shorter[i] != first[i] {
			t.Fatalf("prefix rank %d: %+v vs %+v", i, shorter[i], first[i])
		}
	}
	// Longer than the prefix: a miss that replaces it.
	if _, err := svc.Join2(ctx, "g", p, q, 12, Query{}); err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultMisses != 2 {
		t.Fatalf("k=12 should have missed: %+v", svc.Stats())
	}
	if _, err := svc.Join2(ctx, "g", p, q, 12, Query{}); err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultHits != 2 {
		t.Fatal("repeat k=12 should have hit")
	}

	// Drain the whole ranking; the exhausted prefix then serves any k.
	total := len(sets[0].Nodes()) * len(sets[1].Nodes())
	full, err := svc.Join2(ctx, "g", p, q, total+50, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != total {
		t.Fatalf("full drain returned %d of %d", len(full), total)
	}
	hits := svc.Stats().ResultHits
	again, err := svc.Join2(ctx, "g", p, q, total+999, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultHits != hits+1 {
		t.Fatal("exhausted prefix did not serve an oversized k")
	}
	if len(again) != total {
		t.Fatalf("cached full ranking returned %d", len(again))
	}
}

// TestOpenJoinNMatchesBatch: the n-way streaming handle against JoinN.
func TestOpenJoinNMatchesBatch(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	refs := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}, {Name: sets[2].Name}}
	edges := [][2]int{{0, 1}, {1, 2}}

	st, err := svc.OpenJoinN(context.Background(), "g", refs, edges, Query{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := st.NextK(6)
	if err != nil {
		t.Fatal(err)
	}
	st.Stop()

	ref := New(Config{})
	if err := ref.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}
	want, err := ref.JoinN(context.Background(), "g", refs, edges, 6, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(want) {
		t.Fatalf("streamed %d, batch %d", len(streamed), len(want))
	}
	for i := range want {
		if streamed[i].Score != want[i].Score {
			t.Fatalf("rank %d: %v vs %v", i, streamed[i], want[i])
		}
		for j := range want[i].Nodes {
			if streamed[i].Nodes[j] != want[i].Nodes[j] {
				t.Fatalf("rank %d tuples: %v vs %v", i, streamed[i].Nodes, want[i].Nodes)
			}
		}
	}

	// The stream's prefix serves the next batch request.
	hits := svc.Stats().ResultHits
	if _, err := svc.JoinN(context.Background(), "g", refs, edges, 4, Query{}); err != nil {
		t.Fatal(err)
	}
	if svc.Stats().ResultHits != hits+1 {
		t.Fatal("n-way prefix was not served from cache")
	}
}

// streamCase is one instantiation of the generic stream handle, as the
// contract table below drives it.
type streamCase[T any] struct {
	name   string
	open   func(svc *Service, ctx context.Context, sets []SetRef, q Query) (*Stream[T], error)
	clone  func(T) T
	mutate func(*T) // a hostile caller scribbling over a served result
	same   func(a, b T) bool
}

var pairCase = streamCase[join2.Result]{
	name: "Join2Stream",
	open: func(svc *Service, ctx context.Context, sets []SetRef, q Query) (*Join2Stream, error) {
		return svc.OpenJoin2(ctx, "g", sets[0], sets[1], q)
	},
	clone:  func(r join2.Result) join2.Result { return r },
	mutate: func(r *join2.Result) { r.Pair.P, r.Score = -999, -1 },
	same:   func(a, b join2.Result) bool { return a == b },
}

var answerCase = streamCase[core.Answer]{
	name: "JoinNStream",
	open: func(svc *Service, ctx context.Context, sets []SetRef, q Query) (*JoinNStream, error) {
		return svc.OpenJoinN(ctx, "g", sets[:2], [][2]int{{0, 1}}, q)
	},
	clone: func(a core.Answer) core.Answer {
		return core.Answer{Nodes: append([]graph.NodeID(nil), a.Nodes...), Score: a.Score}
	},
	mutate: func(a *core.Answer) { a.Nodes[0], a.Score = -999, -1 },
	same:   func(a, b core.Answer) bool { return sameAnswers([]core.Answer{a}, []core.Answer{b}) },
}

// TestStreamContract pins the handle contract once for both instantiations
// of Stream[T]: idempotent Stop and a quiet Next after it, cancellation and
// budget expiry surfacing through Next with every engine and admission token
// returned, and the cache's immutability — what a caller does to a served
// result reaches neither the prefix Stop publishes nor a later replay.
func TestStreamContract(t *testing.T) {
	runStreamContract(t, pairCase)
	runStreamContract(t, answerCase)
}

func runStreamContract[T any](t *testing.T, c streamCase[T]) {
	g, sets := testGraph(t)
	named := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}}
	// Small enough that a stream drains the whole ranking (36 results).
	small := []SetRef{{IDs: sets[0].Nodes()[:6]}, {IDs: sets[1].Nodes()[:6]}}
	newSvc := func(t *testing.T, cfg Config) *Service {
		svc := New(cfg)
		if err := svc.LoadGraph("g", g, sets); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	// released asserts the stream gave back its engines and tokens.
	released := func(t *testing.T, svc *Service) {
		t.Helper()
		if engines, tokens := svc.Outstanding(); engines != 0 || tokens != 0 {
			t.Fatalf("%d engines and %d admission tokens outstanding", engines, tokens)
		}
	}

	t.Run(c.name+"/stop", func(t *testing.T) {
		svc := newSvc(t, Config{MaxConcurrency: 2})
		st, err := c.open(svc, context.Background(), named, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Next(); !ok || err != nil {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		st.Stop()
		st.Stop()
		if _, ok, err := st.Next(); ok || err != nil {
			t.Fatalf("pull after Stop: ok=%v err=%v, want a quiet end", ok, err)
		}
		if st.Truncated() {
			t.Fatal("a stopped stream reports Truncated")
		}
		released(t, svc)
	})

	t.Run(c.name+"/cancel", func(t *testing.T) {
		svc := newSvc(t, Config{MaxConcurrency: 2})
		ctx, cancel := context.WithCancel(context.Background())
		st, err := c.open(svc, ctx, named, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Next(); !ok || err != nil {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		cancel()
		if _, ok, err := st.Next(); ok || !errors.Is(err, context.Canceled) {
			t.Fatalf("post-cancel pull: ok=%v err=%v", ok, err)
		}
		if st.Truncated() {
			t.Fatal("a cancelled stream reports Truncated")
		}
		released(t, svc)
	})

	t.Run(c.name+"/budget", func(t *testing.T) {
		// The budget outlives the open and the first pull, then expires
		// while the caller sits on the handle.
		svc := newSvc(t, Config{MaxConcurrency: 2})
		st, err := c.open(svc, context.Background(), named, Query{Budget: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Stop()
		if _, ok, err := st.Next(); !ok || err != nil {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		<-st.ctx.Done()
		if _, ok, err := st.Next(); ok || !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("pull past the budget: ok=%v err=%v, want ErrBudgetExceeded", ok, err)
		}
		if !st.Truncated() {
			t.Fatal("stream does not report Truncated after budget expiry")
		}
		if svc.Stats().BudgetTruncations != 1 {
			t.Fatalf("BudgetTruncations = %d, want 1", svc.Stats().BudgetTruncations)
		}
		released(t, svc)
	})

	t.Run(c.name+"/immutable", func(t *testing.T) {
		svc := newSvc(t, Config{})
		ctx := context.Background()
		drain := func() []T {
			t.Helper()
			st, err := c.open(svc, ctx, small, Query{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Stop()
			var kept []T
			for {
				v, ok, err := st.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return kept
				}
				kept = append(kept, c.clone(v))
				c.mutate(&v) // live: before Stop publishes; replayed: never the cache's snapshot
			}
		}
		want := drain() // live: runs the join, publishes the exhausted ranking
		if len(want) != 36 {
			t.Fatalf("drained %d results, want the whole 36-result ranking", len(want))
		}
		walks, hits := svc.Stats().Walks, svc.Stats().ResultHits
		for round := 1; round <= 2; round++ {
			got := drain() // replays: served from the cache, scribbled over again
			if len(got) != len(want) {
				t.Fatalf("replay %d returned %d of %d results", round, len(got), len(want))
			}
			for i := range want {
				if !c.same(got[i], want[i]) {
					t.Fatalf("replay %d rank %d: %+v, want %+v (cache poisoned by a caller)", round, i, got[i], want[i])
				}
			}
		}
		s := svc.Stats()
		if s.Walks != walks {
			t.Fatalf("replays performed %d walks", s.Walks-walks)
		}
		if s.ResultHits != hits+2 {
			t.Fatalf("replays not counted as hits: %+v", s)
		}
	})
}
