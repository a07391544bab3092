package measure

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dht"
	"repro/internal/rankjoin"
)

// Request is the ranking-determining part of a join or score request as the
// caller spelled it. The zero value asks for the paper's defaults.
type Request struct {
	Measure string             // served measure name; "" selects "dht"
	Params  dht.Params         // zero selects the kernel's own default
	Epsilon float64            // truncation error bound; zero selects 1e-6; ignored when D is set
	D       int                // forces the truncation depth
	Agg     rankjoin.Aggregate // n-way aggregate; nil selects Min
	M       int                // n-way per-edge budget; zero selects 50
}

// Resolved is a Request with every default applied and every field
// validated. It is the only form the execution layers read, so one-shot,
// served and scattered evaluations of one Request cannot disagree. The walk
// kind the engines fold is Kernel.Walk.
type Resolved struct {
	Kernel Kernel
	Params dht.Params
	D      int
	Agg    rankjoin.Aggregate
	M      int
}

// ErrEpsilon reports a truncation error bound that is negative or not a
// finite number (NaN, ±Inf): no walk depth honours it. HTTP maps it to 400.
var ErrEpsilon = errors.New("measure: epsilon must be a positive finite number")

// maxDepth bounds the truncation depth a request may ask for, directly or
// through a tiny epsilon: the number arrives from outside the program, and
// planning, walking and the per-walk probability rows are all linear in it.
// DHTλ(0.99) at ε = 1e-6 needs about 1.8k steps, so the bound refuses
// nothing a served measure converges on.
const maxDepth = 1 << 12

// Resolve is the single place the system's defaults live: the kernel's
// customary parameterization first (ppr → PPR(0.5)), then DHTλ(0.2),
// ε = 1e-6, MIN and m = 50.
func Resolve(r Request) (Resolved, error) {
	kern, err := Lookup(r.Measure)
	if err != nil {
		return Resolved{}, err
	}
	p := kern.ResolveParams(r.Params)
	if p == (dht.Params{}) {
		p = dht.DHTLambda(0.2)
	}
	if err := p.Validate(); err != nil {
		return Resolved{}, err
	}
	d := r.D
	if d == 0 {
		eps := r.Epsilon
		if eps == 0 {
			eps = 1e-6
		}
		if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
			return Resolved{}, fmt.Errorf("%w, got %g", ErrEpsilon, eps)
		}
		d = p.StepsForEpsilon(eps)
	}
	if d < 1 || d > maxDepth {
		return Resolved{}, fmt.Errorf("measure: depth d must be in [1, %d], got %d", maxDepth, d)
	}
	agg := r.Agg
	if agg == nil {
		agg = rankjoin.Min
	}
	m := r.M
	if m == 0 {
		m = 50
	}
	if m < 0 {
		return Resolved{}, fmt.Errorf("measure: m must be >= 0, got %d", m)
	}
	return Resolved{Kernel: kern, Params: p, D: d, Agg: agg, M: m}, nil
}

// ParamsFor maps the one-number parameterization the front ends expose (the
// wire's "lambda", njoin's -lambda; dhte selects the DHTe form instead) to
// the named measure's coefficients. A zero lambda yields zero Params, which
// Resolve then defaults.
func ParamsFor(name string, lambda float64, dhte bool) (dht.Params, error) {
	kern, err := Lookup(name)
	switch {
	case err != nil:
		return dht.Params{}, err
	case dhte:
		return dht.DHTE(), nil
	case lambda == 0:
		return dht.Params{}, nil
	case kern.LambdaParams != nil:
		return kern.LambdaParams(lambda), nil
	}
	return dht.DHTLambda(lambda), nil
}
