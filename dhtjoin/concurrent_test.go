package dhtjoin

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestConcurrentOptionsJoins drives one-shot Options-level joins from many
// goroutines against one shared graph, and the Service facade alongside
// them, so the shared engine pool and the result cache see the same traffic.
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
				case 2: // service facade: shared pool + result LRU
					got, err := svc.TopKPairs(context.Background(), "g", p, q, 10, nil)
					if err != nil {
						errs <- err
						return
					}
					if !pairsEqual(got, wantPairs) {
						errs <- fmt.Errorf("w%d i%d: service TopKPairs diverged", w, i)
						return
					}
				default: // service n-way
					got, err := svc.TopK(context.Background(), "g", query, 6, nil)
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
// concurrency: served results equal the one-shot calls for the same Options,
// including non-default parameters.
func TestServiceFacadeBitIdentical(t *testing.T) {
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
	} {
		want, err := TopKPairs(g, p, q, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.TopKPairs(context.Background(), "g", p, q, 8, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want) {
			t.Fatalf("opts %+v: facade diverged from one-shot", opts)
		}
		wantN, err := TopK(g, Chain(p, q), 5, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := svc.TopK(context.Background(), "g", Chain(p, q), 5, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !answersEqual(gotN, wantN) {
			t.Fatalf("opts %+v: facade n-way diverged from one-shot", opts)
		}
		u, v := p.Nodes()[0], q.Nodes()[0]
		wantS, err := Score(g, u, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := svc.Score(context.Background(), "g", u, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gotS != wantS {
			t.Fatalf("opts %+v: facade Score %v != %v", opts, gotS, wantS)
		}
	}
}

// TestServiceFacadeInvalidOptions: options that do not resolve are rejected
// with ErrInvalidOptions at every entry point of the served facade, exactly
// as the one-shot path rejects them.
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
	calls := map[string]func() error{
		"TopKPairs":    func() error { _, err := svc.TopKPairs(ctx, "g", p, q, 8, bogus); return err },
		"OpenPairs":    func() error { _, err := svc.OpenPairs(ctx, "g", p, q, bogus); return err },
		"TopK":         func() error { _, err := svc.TopK(ctx, "g", Chain(p, q), 5, bogus); return err },
		"OpenAnswers":  func() error { _, err := svc.OpenAnswers(ctx, "g", Chain(p, q), bogus); return err },
		"Score":        func() error { _, err := svc.Score(ctx, "g", 0, 1, bogus); return err },
		"ExplainPairs": func() error { _, err := svc.ExplainPairs(ctx, "g", p, q, 8, bogus); return err },
		"ExplainJoin":  func() error { _, err := svc.ExplainJoin(ctx, "g", Chain(p, q), bogus); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("served %s with negative m: %v, want ErrInvalidOptions", name, err)
		}
	}
}

// TestOptionsReachQuery is the copy-completeness check of the facade: every
// field of Options, set alone, changes the service.Query it is served with.
// A field added to Options without a line in toQuery fails here.
func TestOptionsReachQuery(t *testing.T) {
	zero := toQuery(&Options{})
	ot := reflect.TypeOf(Options{})
	for i := 0; i < ot.NumField(); i++ {
		var o Options
		fv := reflect.ValueOf(&o).Elem().Field(i)
		switch name := ot.Field(i).Name; name {
		case "Params":
			o.Params = PPR(0.3)
		case "Agg":
			o.Agg = Sum
		default:
			switch fv.Kind() {
			case reflect.String:
				fv.SetString("x")
			case reflect.Int, reflect.Int64:
				fv.SetInt(3)
			case reflect.Float64:
				fv.SetFloat(0.5)
			case reflect.Bool:
				fv.SetBool(true)
			default:
				t.Fatalf("Options.%s: kind %s has no test value; extend this test", name, fv.Kind())
			}
		}
		if reflect.DeepEqual(toQuery(&o), zero) {
			t.Errorf("Options.%s never reaches service.Query", ot.Field(i).Name)
		}
	}
}
