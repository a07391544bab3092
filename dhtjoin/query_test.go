package dhtjoin

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

func queryWorld(t testing.TB) (*Graph, []*NodeSet) {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{14, 14, 12}, PIn: 0.25, POut: 0.08, Seed: 21, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, sets
}

// TestResultsPrefixMatchesTopKPairs: ranging over Results and breaking after
// m results must reproduce TopKPairs(m) bit-identically, for every m.
func TestResultsPrefixMatchesTopKPairs(t *testing.T) {
	g, sets := queryWorld(t)
	p, q := sets[0], sets[1]
	for _, opts := range []*Options{nil, {MeasureName: "ppr"}} {
		query := NewPairQuery(g, p, q).WithOptions(opts)
		var streamed []PairResult
		for r, err := range query.Results(context.Background()) {
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, r)
			if len(streamed) == 40 {
				break
			}
		}
		for _, m := range []int{1, 7, 40} {
			want, err := TopKPairs(g, p, q, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != m {
				t.Fatalf("TopKPairs(%d) returned %d", m, len(want))
			}
			for i := range want {
				if streamed[i].Pair != want[i].Pair || streamed[i].Score != want[i].Score {
					t.Fatalf("opts=%+v m=%d rank %d: streamed %+v, batch %+v",
						opts, m, i, streamed[i], want[i])
				}
			}
		}
	}
}

// TestAnswersPrefixMatchesTopK: the n-way iterator against the batch TopK.
func TestAnswersPrefixMatchesTopK(t *testing.T) {
	g, sets := queryWorld(t)
	join := Chain(sets[0], sets[1], sets[2])
	query := NewJoinQuery(g, join)
	var streamed []Answer
	for a, err := range query.Answers(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, a)
		if len(streamed) == 25 {
			break
		}
	}
	for _, m := range []int{1, 6, 25} {
		want, err := TopK(g, join, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != m {
			t.Fatalf("TopK(%d) returned %d", m, len(want))
		}
		for i := range want {
			if streamed[i].Score != want[i].Score {
				t.Fatalf("m=%d rank %d: streamed %v, batch %v", m, i, streamed[i], want[i])
			}
			for j := range want[i].Nodes {
				if streamed[i].Nodes[j] != want[i].Nodes[j] {
					t.Fatalf("m=%d rank %d: streamed %v, batch %v",
						m, i, streamed[i].Nodes, want[i].Nodes)
				}
			}
		}
	}
}

// TestNextKContinuation: paging through a stream with NextK must
// concatenate to the one-shot ranking — the "give me the next k" contract.
func TestNextKContinuation(t *testing.T) {
	g, sets := queryWorld(t)
	p, q := sets[0], sets[1]
	s, err := NewPairQuery(g, p, q).OpenPairs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var pages []PairResult
	for i := 0; i < 4; i++ {
		page, err := s.NextK(9)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page...)
	}
	want, err := TopKPairs(g, p, q, 36, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != len(want) {
		t.Fatalf("paged %d results, batch %d", len(pages), len(want))
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("rank %d: paged %+v, batch %+v", i, pages[i], want[i])
		}
	}
}

// TestStreamCancellation: a cancelled context must surface its error from
// Next and stop the stream; pulling after an explicit Stop must report
// ErrStreamStopped.
func TestStreamCancellation(t *testing.T) {
	g, sets := queryWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewPairQuery(g, sets[0], sets[1]).OpenPairs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("pre-cancel next: ok=%v err=%v", ok, err)
	}
	cancel()
	if _, ok, err := s.Next(); ok || !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel next: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Next(); ok || !errors.Is(err, ErrStreamStopped) {
		t.Fatalf("post-stop next: ok=%v err=%v", ok, err)
	}

	// The iterator form: cancellation ends the range with the ctx error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	n := 0
	var sawErr error
	for _, err := range NewPairQuery(g, sets[0], sets[1]).Results(ctx2) {
		if err != nil {
			sawErr = err
			break
		}
		n++
		if n == 3 {
			cancel2()
		}
	}
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("iterator saw %d results, err=%v", n, sawErr)
	}
}

// querySession is one of the two ways a Query runs: unbound over its graph
// (a throw-away session), or bound to a Service holding that graph as "g".
type querySession struct {
	name  string
	pair  func(p, q *NodeSet) *Query
	join  func(*QueryGraph) *Query
	score func(u, v NodeID, opts *Options) (float64, error)
}

// querySessions returns both kinds over g; the bound one gets a fresh
// Service, so no result cached by an earlier caller can serve its requests.
func querySessions(t testing.TB, g *Graph) []querySession {
	t.Helper()
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g); err != nil {
		t.Fatal(err)
	}
	return []querySession{
		{"ephemeral",
			func(p, q *NodeSet) *Query { return NewPairQuery(g, p, q) },
			func(j *QueryGraph) *Query { return NewJoinQuery(g, j) },
			func(u, v NodeID, o *Options) (float64, error) { return Score(g, u, v, o) }},
		{"bound",
			func(p, q *NodeSet) *Query { return svc.PairQuery("g", p, q) },
			func(j *QueryGraph) *Query { return svc.JoinQuery("g", j) },
			func(u, v NodeID, o *Options) (float64, error) {
				return svc.Score(context.Background(), "g", u, v, o)
			}},
	}
}

// TestQueryTypedErrors: validation must wrap the typed sentinels, and a
// query bound to a Service must answer every bad input with the sentinel
// the unbound query does.
func TestQueryTypedErrors(t *testing.T) {
	g, sets := queryWorld(t)
	p, q := sets[0], sets[1]
	empty := NewNodeSet("empty", nil)
	outside := NewNodeSet("outside", []NodeID{0, NodeID(g.NumNodes())})
	ctx := context.Background()

	if _, err := TopKPairs(nil, p, q, 3, nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("nil graph: %v", err)
	}
	if _, err := TopK(nil, Chain(p, q), 3, nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("n-way nil graph: %v", err)
	}
	if _, err := Score(nil, 0, 1, nil); !errors.Is(err, ErrNilGraph) {
		t.Fatalf("Score, nil graph: %v", err)
	}

	for _, s := range querySessions(t, g) {
		t.Run(s.name, func(t *testing.T) {
			pairs := func(qy *Query, k int) error { _, err := qy.TopKPairs(ctx, k); return err }
			answers := func(qy *Query) error { _, err := qy.TopK(ctx, 3); return err }
			bad := NewQueryGraph(p, q).AddEdge(0, 5) // arity mismatch: no set 5
			for name, c := range map[string]struct {
				err, want error
			}{
				"empty P":         {pairs(s.pair(empty, q), 3), ErrEmptyNodeSet},
				"nil Q":           {pairs(s.pair(p, nil), 3), ErrEmptyNodeSet},
				"P out of range":  {pairs(s.pair(outside, q), 3), ErrInvalidQueryGraph},
				"k=0":             {pairs(s.pair(p, q), 0), ErrInvalidK},
				"k<0":             {pairs(s.pair(p, q), -2), ErrInvalidK},
				"bad options":     {pairs(s.pair(p, q).WithOptions(&Options{M: -1}), 3), ErrInvalidOptions},
				"unknown measure": {pairs(s.pair(p, q).WithMeasure("nope"), 3), ErrUnknownMeasure},
				"unknown hint":    {pairs(s.pair(p, q).WithHints(Hints{Algorithm: "B-IDJ-Z"}), 3), ErrUnknownAlgorithm},
				"unknown option algorithm": {
					pairs(s.pair(p, q).WithOptions(&Options{Algorithm: "B-IDJ-Z"}), 3), ErrUnknownAlgorithm},
				"hint conflict":      {answers(s.join(Chain(p, q)).WithHints(Hints{Algorithm: "B-BJ"})), ErrHintConflict},
				"nil query graph":    {answers(s.join(nil)), ErrQueryForm},
				"arity mismatch":     {answers(s.join(bad)), ErrInvalidQueryGraph},
				"empty set in join":  {answers(s.join(Chain(p, empty))), ErrInvalidQueryGraph},
				"join out of range":  {answers(s.join(Chain(p, outside))), ErrInvalidQueryGraph},
				"n-way k=0":          {func() error { _, err := s.join(Chain(p, q)).TopK(ctx, 0); return err }(), ErrInvalidK},
				"pair OpenAnswers":   {func() error { _, err := s.pair(p, q).OpenAnswers(ctx); return err }(), ErrQueryForm},
				"join OpenPairs":     {func() error { _, err := s.join(Chain(p, q)).OpenPairs(ctx); return err }(), ErrQueryForm},
				"Score u = -1":       {func() error { _, err := s.score(-1, 1, nil); return err }(), ErrNodeRange},
				"Score v = NumNodes": {func() error { _, err := s.score(0, NodeID(g.NumNodes()), nil); return err }(), ErrNodeRange},
				"Score bad options":  {func() error { _, err := s.score(0, 1, &Options{M: -1}); return err }(), ErrInvalidOptions},
			} {
				if !errors.Is(c.err, c.want) {
					t.Errorf("%s: %v, want %v", name, c.err, c.want)
				}
			}
		})
	}

	// ScoresFrom checks its inputs instead of panicking in the walk.
	two := NewBuilder(2, false).Build()
	for name, c := range map[string]struct {
		g    *Graph
		v    NodeID
		opts *Options
		out  []float64
		want error
	}{
		"nil graph":        {nil, 0, nil, nil, ErrNilGraph},
		"v = -1":           {two, -1, nil, nil, ErrNodeRange},
		"v = 99":           {two, 99, nil, nil, ErrNodeRange},
		"v = 99 (simrank)": {two, 99, &Options{MeasureName: "simrank"}, nil, ErrNodeRange},
		"short out":        {two, 1, nil, make([]float64, 1), ErrBufferLength},
		"long out (ppr)":   {two, 1, &Options{MeasureName: "ppr"}, make([]float64, 3), ErrBufferLength},
	} {
		if _, err := ScoresFrom(c.g, c.v, c.opts, c.out); !errors.Is(err, c.want) {
			t.Errorf("ScoresFrom, %s: %v, want %v", name, err, c.want)
		}
	}
}

// TestStreamContract pins the handle contract once for both instantiations
// of Stream[T], unbound and bound alike: Stop is idempotent and a pull after
// it reports ErrStreamStopped; an exhausted stream keeps reporting a quiet
// ok=false; an expired budget ends the stream cleanly with Truncated set.
func TestStreamContract(t *testing.T) {
	g, sets := queryWorld(t)
	p, q := sets[0].Take(4), sets[1].Take(4) // 16 results: cheap to exhaust
	streamContract(t, g, "PairStream", func(ctx context.Context, s querySession, o *Options) (*PairStream, error) {
		return s.pair(p, q).WithOptions(o).OpenPairs(ctx)
	})
	streamContract(t, g, "AnswerStream", func(ctx context.Context, s querySession, o *Options) (*AnswerStream, error) {
		return s.join(Chain(p, q)).WithOptions(o).OpenAnswers(ctx)
	})
}

func streamContract[T any](t *testing.T, g *Graph, name string, openIn func(context.Context, querySession, *Options) (*Stream[T], error)) {
	ctx := context.Background()
	// run runs one case once per session, each on a fresh Service.
	run := func(c string, body func(t *testing.T, open func(*Options) (*Stream[T], error))) {
		t.Run(name+"/"+c, func(t *testing.T) {
			for _, s := range querySessions(t, g) {
				t.Run(s.name, func(t *testing.T) {
					body(t, func(o *Options) (*Stream[T], error) { return openIn(ctx, s, o) })
				})
			}
		})
	}
	run("stop", func(t *testing.T, open func(*Options) (*Stream[T], error)) {
		s, err := open(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.NextK(3); err != nil {
			t.Fatal(err)
		}
		s.Stop()
		s.Stop()
		if _, ok, err := s.Next(); ok || !errors.Is(err, ErrStreamStopped) {
			t.Fatalf("next after stop: ok=%v err=%v", ok, err)
		}
		if _, err := s.NextK(0); !errors.Is(err, ErrInvalidK) {
			t.Fatalf("NextK(0): %v, want ErrInvalidK", err)
		}
	})
	run("exhausted", func(t *testing.T, open func(*Options) (*Stream[T], error)) {
		s, err := open(nil)
		if err != nil {
			t.Fatal(err)
		}
		all, err := s.NextK(100)
		if err != nil || len(all) != 16 {
			t.Fatalf("drained %d results (err=%v), want the whole 16-result ranking", len(all), err)
		}
		for i := 0; i < 2; i++ {
			if _, ok, err := s.Next(); ok || err != nil {
				t.Fatalf("next after exhaustion: ok=%v err=%v, want a quiet end", ok, err)
			}
		}
		if s.Truncated() {
			t.Fatal("an exhausted stream reports Truncated")
		}
	})
	run("budget", func(t *testing.T, open func(*Options) (*Stream[T], error)) {
		// The budget outlives the open, then expires while the caller sits
		// on the handle.
		s, err := open(&Options{Budget: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		time.Sleep(150 * time.Millisecond)
		if _, ok, err := s.Next(); ok || err != nil {
			t.Fatalf("next past the budget: ok=%v err=%v, want a clean end", ok, err)
		}
		if !s.Truncated() {
			t.Fatal("budget expiry did not set Truncated")
		}
		if _, ok, err := s.Next(); ok || err != nil {
			t.Fatalf("next after truncation: ok=%v err=%v", ok, err)
		}
	})
}

// TestBudgetSpentAtOpen: a budget that is gone before the stream can open
// is the shortest truncation, not a failure — the handle comes back
// Truncated with zero results, and the batch calls return the empty exact
// prefix alongside ErrBudgetExceeded, exactly as a mid-join expiry would.
// Unbound and bound queries alike.
func TestBudgetSpentAtOpen(t *testing.T) {
	g, sets := queryWorld(t)
	ctx := context.Background()
	spent := &Options{Budget: time.Nanosecond}
	for _, s := range querySessions(t, g) {
		t.Run(s.name, func(t *testing.T) {
			pairs := s.pair(sets[0], sets[1]).WithOptions(spent)
			join := s.join(Chain(sets[0], sets[1], sets[2])).WithOptions(spent)

			ps, err := pairs.OpenPairs(ctx)
			if err != nil {
				t.Fatalf("OpenPairs past its budget: %v, want a truncated handle", err)
			}
			defer ps.Stop()
			as, err := join.OpenAnswers(ctx)
			if err != nil {
				t.Fatalf("OpenAnswers past its budget: %v, want a truncated handle", err)
			}
			defer as.Stop()
			if !ps.Truncated() || !as.Truncated() {
				t.Fatal("a handle opened past its budget does not report Truncated")
			}
			for i := 0; i < 2; i++ {
				if _, ok, err := ps.Next(); ok || err != nil {
					t.Fatalf("pair pull %d: ok=%v err=%v, want a clean end", i, ok, err)
				}
				if _, ok, err := as.Next(); ok || err != nil {
					t.Fatalf("answer pull %d: ok=%v err=%v, want a clean end", i, ok, err)
				}
			}

			if res, err := pairs.TopKPairs(ctx, 5); !errors.Is(err, ErrBudgetExceeded) || len(res) != 0 {
				t.Fatalf("TopKPairs: %d results, err=%v; want the empty prefix with ErrBudgetExceeded", len(res), err)
			}
			if res, err := join.TopK(ctx, 5); !errors.Is(err, ErrBudgetExceeded) || len(res) != 0 {
				t.Fatalf("TopK: %d results, err=%v; want the empty prefix with ErrBudgetExceeded", len(res), err)
			}
		})
	}
}

// TestEphemeralSessionRestored: whichever executor the throw-away session
// runs — planned or forced — a Stop mid-stream must leave it holding
// nothing: no engine checked out of its pool, its admission token back.
func TestEphemeralSessionRestored(t *testing.T) {
	g, sets := queryWorld(t)
	ctx := context.Background()
	// midStop pulls three results, checks the live stream holds a token,
	// stops it and checks the session holds nothing.
	midStop := func(t *testing.T, svc *service.Service, nextK func(int) (int, error), stop func()) {
		t.Helper()
		if n, err := nextK(3); err != nil || n != 3 {
			t.Fatalf("pulled %d results, err=%v", n, err)
		}
		if _, tokens := svc.Outstanding(); tokens == 0 {
			t.Fatal("a live stream holds no admission token")
		}
		stop()
		if engines, tokens := svc.Outstanding(); engines != 0 || tokens != 0 {
			t.Fatalf("Stop left %d engines and %d tokens outstanding", engines, tokens)
		}
	}
	// The workers=… name segment outlived the option it named, so the
	// subtest names stay stable; every value runs the same case.
	for _, workers := range []int{0, 3, -1} {
		for _, forced := range [][2]string{{"B-BJ", "AP"}, {"", ""}} {
			t.Run(fmt.Sprintf("workers=%d/forced=%q", workers, forced), func(t *testing.T) {
				pairs := NewPairQuery(g, sets[0], sets[1]).WithHints(Hints{Algorithm: forced[0]})
				svc, name, q, err := pairs.session(false)
				if err != nil {
					t.Fatal(err)
				}
				pst, err := svc.OpenJoin2(ctx, name, idsRef(sets[0]), idsRef(sets[1]), q)
				if err != nil {
					t.Fatal(err)
				}
				ps := &PairStream{pst}
				midStop(t, svc, func(k int) (int, error) { r, err := ps.NextK(k); return len(r), err }, ps.Stop)

				join := NewJoinQuery(g, Chain(sets[0], sets[1], sets[2])).WithHints(Hints{Algorithm: forced[1]})
				if svc, name, q, err = join.session(true); err != nil {
					t.Fatal(err)
				}
				refs, edges := setRefs(join.join)
				ast, err := svc.OpenJoinN(ctx, name, refs, edges, q)
				if err != nil {
					t.Fatal(err)
				}
				as := &AnswerStream{ast}
				midStop(t, svc, func(k int) (int, error) { r, err := as.NextK(k); return len(r), err }, as.Stop)
			})
		}
	}
}
