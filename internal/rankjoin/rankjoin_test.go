package rankjoin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAggregates(t *testing.T) {
	s := []float64{1, -2, 3}
	if got := Sum.Combine(s); got != 2 {
		t.Fatalf("Sum = %v", got)
	}
	if got := Min.Combine(s); got != -2 {
		t.Fatalf("Min = %v", got)
	}
	if got := Max.Combine(s); got != 3 {
		t.Fatalf("Max = %v", got)
	}
	if got := Avg.Combine(s); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Avg = %v", got)
	}
	if Avg.Combine(nil) != 0 {
		t.Fatal("Avg(nil) != 0")
	}
	for _, a := range []Aggregate{Sum, Min, Max, Avg} {
		if a.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestWeightedSum(t *testing.T) {
	w, err := WeightedSum([]float64{2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Combine([]float64{1, 4}); got != 4 {
		t.Fatalf("WSUM = %v", got)
	}
	if _, err := WeightedSum([]float64{-1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := WeightedSum([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch not detected")
		}
	}()
	w.Combine([]float64{1})
}

func TestByName(t *testing.T) {
	for _, name := range []string{"SUM", "min", "MAX", "avg"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("median"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// Monotonicity property of all built-in aggregates: raising one input never
// lowers the output (Definition 2).
func TestAggregateMonotonicityProperty(t *testing.T) {
	aggs := []Aggregate{Sum, Min, Max, Avg}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		base := make([]float64, n)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		for _, a := range aggs {
			before := a.Combine(base)
			i := rng.Intn(n)
			raised := append([]float64(nil), base...)
			raised[i] += rng.Float64()
			if a.Combine(raised) < before-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundLifecycle(t *testing.T) {
	b := NewBound(Sum, 2)
	if !math.IsInf(b.Tau(), 1) {
		t.Fatal("tau should be +Inf before any observation")
	}
	b.Observe(0, 10)
	if !math.IsInf(b.Tau(), 1) {
		t.Fatal("tau should remain +Inf until every input observed")
	}
	b.Observe(1, 8)
	// Corners: f(last0=10, top1=8)=18; f(top0=10, last1=8)=18 → 18.
	if tau := b.Tau(); tau != 18 {
		t.Fatalf("tau = %v, want 18", tau)
	}
	b.Observe(0, 4)
	// Corners: f(4, 8)=12; f(10, 8)=18 → 18.
	if tau := b.Tau(); tau != 18 {
		t.Fatalf("tau = %v, want 18", tau)
	}
	b.Observe(1, 1)
	// Corners: f(4,8)=12; f(10,1)=11 → 12.
	if tau := b.Tau(); tau != 12 {
		t.Fatalf("tau = %v, want 12", tau)
	}
	b.Exhaust(0)
	// Corner 0 is -Inf; corner 1: f(10,1)=11.
	if tau := b.Tau(); tau != 11 {
		t.Fatalf("tau after exhaust = %v, want 11", tau)
	}
}

func TestBoundExhaustUnseen(t *testing.T) {
	b := NewBound(Sum, 2)
	b.Observe(0, 5)
	b.Exhaust(1) // never delivered anything
	if !math.IsInf(b.Tau(), -1) {
		// corner 0 = f(5, -inf) = -inf; corner 1 = f(5, -inf) = -inf
		t.Fatalf("tau = %v, want -Inf", b.Tau())
	}
}

func TestRoundRobin(t *testing.T) {
	rr := NewRoundRobin(3)
	var order []int
	for i := 0; i < 6; i++ {
		j, ok := rr.Pick()
		if !ok {
			t.Fatal("live scheduler reported done")
		}
		order = append(order, j)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	rr.Exhaust(1)
	if rr.Live(1) {
		t.Fatal("exhausted input reported live")
	}
	for i := 0; i < 4; i++ {
		j, ok := rr.Pick()
		if !ok || j == 1 {
			t.Fatalf("picked exhausted input %d (ok=%v)", j, ok)
		}
	}
	rr.Exhaust(0)
	rr.Exhaust(2)
	if _, ok := rr.Pick(); ok {
		t.Fatal("all-exhausted scheduler still picks")
	}
}
