package dhtjoin

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestConcurrentOptionsJoins drives one-shot Options-level joins from many
// goroutines against one shared graph, and queries bound to a Service
// alongside them, so the shared engine pool and the result cache see the
// same traffic.
// Run under -race in CI; every response is checked against the serial
// reference, so scheduling can corrupt neither the caches nor the results.
func TestConcurrentOptionsJoins(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{40, 40, 30}, PIn: 0.15, POut: 0.05, Seed: 17, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, q, r := sets[0], sets[1], sets[2]
	query := Chain(p, q, r)

	// Serial references.
	wantPairs, err := TopKPairs(g, p, q, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers, err := TopK(g, query, 6, nil)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewService(ServiceConfig{MaxConcurrency: 4})
	if err := svc.LoadGraph("g", g, p, q, r); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (w + i) % 4 {
				case 0: // one-shot 2-way
					got, err := TopKPairs(g, p, q, 10, nil)
					if err != nil {
						errs <- err
						return
					}
					if !pairsEqual(got, wantPairs) {
						errs <- fmt.Errorf("w%d i%d: one-shot TopKPairs diverged", w, i)
						return
					}
				case 1: // one-shot n-way
					got, err := TopK(g, query, 6, nil)
					if err != nil {
						errs <- err
						return
					}
					if !answersEqual(got, wantAnswers) {
						errs <- fmt.Errorf("w%d i%d: one-shot TopK diverged", w, i)
						return
					}
				case 2: // bound 2-way: shared pool + result LRU
					got, err := svc.PairQuery("g", p, q).TopKPairs(context.Background(), 10)
					if err != nil {
						errs <- err
						return
					}
					if !pairsEqual(got, wantPairs) {
						errs <- fmt.Errorf("w%d i%d: service TopKPairs diverged", w, i)
						return
					}
				default: // bound n-way
					got, err := svc.JoinQuery("g", query).TopK(context.Background(), 6)
					if err != nil {
						errs <- err
						return
					}
					if !answersEqual(got, wantAnswers) {
						errs <- fmt.Errorf("w%d i%d: service TopK diverged", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.ResultHits == 0 {
		t.Fatal("service saw no result-cache hits under repeated identical queries")
	}
}

func pairsEqual(a, b []PairResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func answersEqual(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score || len(a[i].Nodes) != len(b[i].Nodes) {
			return false
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				return false
			}
		}
	}
	return true
}

// TestServiceFacadeBitIdentical pins the facade contract outside of
// concurrency: every entry point of a bound query, and Service.Score, equals
// the unbound call for the same Options, including non-default parameters.
func TestServiceFacadeBitIdentical(t *testing.T) {
	ctx := context.Background()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{30, 30}, PIn: 0.2, POut: 0.08, Seed: 5, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, q := sets[0], sets[1]
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g, p, q); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []*Options{
		nil,
		{D: 5},
		{Params: DHTLambda(0.5), Epsilon: 1e-4},
		{MeasureName: "reach", Params: PPR(0.2)},
		{Agg: Sum, M: 20},
		{Tenant: "t", Priority: PriorityBatch},
	} {
		pairs := [2]*Query{NewPairQuery(g, p, q), svc.PairQuery("g", p, q)}
		joins := [2]*Query{NewJoinQuery(g, Chain(p, q)), svc.JoinQuery("g", Chain(p, q))}
		var outs [2][]any
		for i := range outs {
			pq, jq := pairs[i].WithOptions(opts), joins[i].WithOptions(opts)
			u, v := p.Nodes()[0], q.Nodes()[0]
			score := func() (float64, error) { return Score(g, u, v, opts) }
			if i == 1 {
				score = func() (float64, error) { return svc.Score(ctx, "g", u, v, opts) }
			}
			for _, call := range []func() (any, error){
				func() (any, error) { return nil, pq.Validate() },
				func() (any, error) { return pq.Explain(ctx) },
				func() (any, error) { return pq.ExplainTopK(ctx, 8) },
				func() (any, error) { return pq.TopKPairs(ctx, 8) },
				func() (any, error) { return drain(pq.OpenPairs(ctx)) },
				func() (any, error) { return first(pq.Results(ctx), 8) },
				func() (any, error) { return jq.Explain(ctx) },
				func() (any, error) { return jq.ExplainTopK(ctx, 5) },
				func() (any, error) { return jq.TopK(ctx, 5) },
				func() (any, error) { return drain(jq.OpenAnswers(ctx)) },
				func() (any, error) { return first(jq.Answers(ctx), 5) },
				func() (any, error) { return score() },
			} {
				out, err := call()
				if err != nil {
					t.Fatalf("opts %+v, call %d: %v", opts, len(outs[i]), err)
				}
				outs[i] = append(outs[i], out)
			}
		}
		for j := range outs[0] {
			if !reflect.DeepEqual(outs[0][j], outs[1][j]) {
				t.Errorf("opts %+v, call %d: bound %v, unbound %v", opts, j, outs[1][j], outs[0][j])
			}
		}
	}
}

// drain pulls the first 8 results of an opened stream and stops it.
func drain[T any](s *Stream[T], err error) ([]T, error) {
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	return s.NextK(8)
}

// first collects the first n results of an iterator.
func first[T any](seq iter.Seq2[T, error], n int) ([]T, error) {
	var out []T
	for v, err := range seq {
		if err != nil {
			return nil, err
		}
		if out = append(out, v); len(out) == n {
			break
		}
	}
	return out, nil
}

// TestServiceFacadeInvalidOptions: options that do not resolve are rejected
// with ErrInvalidOptions by every Query method of a bound query and by
// Service.Score, exactly as the one-shot path rejects them.
func TestServiceFacadeInvalidOptions(t *testing.T) {
	ctx := context.Background()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{30, 30}, PIn: 0.2, POut: 0.08, Seed: 5, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, q := sets[0], sets[1]
	svc := NewService(ServiceConfig{})
	if err := svc.LoadGraph("g", g, p, q); err != nil {
		t.Fatal(err)
	}

	bogus := &Options{M: -1}
	if _, err := TopKPairs(g, p, q, 8, bogus); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("one-shot negative m: %v, want ErrInvalidOptions", err)
	}
	pq := svc.PairQuery("g", p, q).WithOptions(bogus)
	jq := svc.JoinQuery("g", Chain(p, q)).WithOptions(bogus)
	calls := map[string]func() error{
		"Validate":    pq.Validate,
		"Explain":     func() error { _, err := jq.Explain(ctx); return err },
		"ExplainTopK": func() error { _, err := pq.ExplainTopK(ctx, 8); return err },
		"TopKPairs":   func() error { _, err := pq.TopKPairs(ctx, 8); return err },
		"TopK":        func() error { _, err := jq.TopK(ctx, 5); return err },
		"OpenPairs":   func() error { _, err := pq.OpenPairs(ctx); return err },
		"OpenAnswers": func() error { _, err := jq.OpenAnswers(ctx); return err },
		"Results":     func() error { _, err := first(pq.Results(ctx), 8); return err },
		"Answers":     func() error { _, err := first(jq.Answers(ctx), 5); return err },
		"Score":       func() error { _, err := svc.Score(ctx, "g", 0, 1, bogus); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("served %s with negative m: %v, want ErrInvalidOptions", name, err)
		}
	}
}
