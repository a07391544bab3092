package measure_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dht"
	"repro/internal/measure"
	"repro/internal/rankjoin"
)

// TestResolve pins the one resolver: the system defaults, the kernel-owned
// ones, caller values winning, and every rejection — hostile numbers come
// back as errors, never as a panic out of the depth computation.
func TestResolve(t *testing.T) {
	def, err := measure.Resolve(measure.Request{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Kernel.Name != "dht" || def.Params != dht.DHTLambda(0.2) || def.D != 8 ||
		def.Agg != rankjoin.Min || def.M != 50 || def.Kernel.Walk != dht.FirstHit {
		t.Fatalf("defaults resolved to %+v", def)
	}

	ppr, err := measure.Resolve(measure.Request{Measure: "ppr"})
	if err != nil {
		t.Fatal(err)
	}
	if ppr.Params != dht.PPR(0.5) || ppr.Kernel.Walk != dht.Reach || ppr.D != dht.PPR(0.5).StepsForEpsilon(1e-6) {
		t.Fatalf("ppr defaults resolved to %+v", ppr)
	}

	set, err := measure.Resolve(measure.Request{
		Measure: "reach", Params: dht.PPR(0.3), D: 4, Epsilon: 1e-2, Agg: rankjoin.Sum, M: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if set.Params != dht.PPR(0.3) || set.D != 4 || set.Agg != rankjoin.Sum || set.M != 7 {
		t.Fatalf("caller values did not win: %+v", set)
	}

	// Resolving a resolved request is the identity — the property the
	// cluster wire relies on.
	again, err := measure.Resolve(measure.Request{
		Measure: ppr.Kernel.Name, Params: ppr.Params, D: ppr.D, Agg: ppr.Agg, M: ppr.M,
	})
	if err != nil || again.Params != ppr.Params || again.D != ppr.D || again.M != ppr.M || again.Kernel.Name != ppr.Kernel.Name {
		t.Fatalf("re-resolution moved: %+v (err=%v), want %+v", again, err, ppr)
	}

	for name, bad := range map[string]measure.Request{
		"unknown measure":        {Measure: "katz"},
		"lambda out of range":    {Params: dht.Params{Alpha: 1, Lambda: 7}},
		"negative depth":         {D: -2},
		"depth past the bound":   {D: 1 << 20},
		"epsilon past the bound": {Params: dht.DHTLambda(0.999999), Epsilon: 1e-9},
		"negative epsilon":       {Epsilon: -1},
		"NaN epsilon":            {Epsilon: math.NaN()},
		"+Inf epsilon":           {Epsilon: math.Inf(1)},
		"-Inf epsilon":           {Epsilon: math.Inf(-1)},
		"negative m":             {M: -1},
	} {
		if _, err := measure.Resolve(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := measure.Resolve(measure.Request{Epsilon: eps}); !errors.Is(err, measure.ErrEpsilon) {
			t.Errorf("epsilon %g: error %v is not ErrEpsilon", eps, err)
		}
	}
	if _, err := measure.Resolve(measure.Request{Measure: "katz"}); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("unknown measure error %v is not ErrUnknownMeasure", err)
	}
}

// TestParamsFor: the front ends' single decay number means what the named
// kernel says it means.
func TestParamsFor(t *testing.T) {
	for _, c := range []struct {
		name   string
		lambda float64
		dhte   bool
		want   dht.Params
	}{
		{"", 0, false, dht.Params{}},
		{"", 0.4, false, dht.DHTLambda(0.4)},
		{"reach", 0.4, false, dht.DHTLambda(0.4)},
		{"ppr", 0.3, false, dht.PPR(0.3)},
		{"ppr", 0, false, dht.Params{}},
		{"ppr", 0.3, true, dht.DHTE()},
	} {
		got, err := measure.ParamsFor(c.name, c.lambda, c.dhte)
		if err != nil || got != c.want {
			t.Errorf("ParamsFor(%q, %v, %v) = %v, %v; want %v", c.name, c.lambda, c.dhte, got, err, c.want)
		}
	}
	if _, err := measure.ParamsFor("katz", 0.3, false); !errors.Is(err, measure.ErrUnknownMeasure) {
		t.Fatalf("unknown measure error %v is not ErrUnknownMeasure", err)
	}
}
