// Package dht implements the discounted hitting time (DHT) of Zhang, Cheng,
// and Kao (ICDE 2014): the general form h(u,v) = α·Σ λ^i·P_i(u,v) + β
// (Definition 5), its two published parameterizations DHTe and DHTλ
// (Table II), truncated evaluation h_d (Equation 4) with the Lemma-1 step
// bound, forward absorbing walks, backward walks (backWalk, Equation 5), the
// X⁺ₗ and Y⁺ₗ pruning bounds (Lemma 2 and Theorem 1), and an exact dense
// solver used as ground truth in tests.
package dht

import (
	"fmt"
	"math"
)

// Params holds the coefficients of the general DHT form (Definition 5):
//
//	h(u,v) = α · Σ_{i≥1} λ^i · P_i(u,v) + β,   λ ∈ (0,1), α ≠ 0.
//
// P_i(u,v) is the probability that a random walk from u first hits v at
// step i. Note h is a similarity: larger is closer.
type Params struct {
	Alpha  float64
	Beta   float64
	Lambda float64
}

// DHTE returns the parameters of the DHTe measure of Guan et al. (SIGMOD'11):
// α = e, β = 0, λ = 1/e (Table II).
func DHTE() Params {
	return Params{Alpha: math.E, Beta: 0, Lambda: 1 / math.E}
}

// DHTLambda returns the parameters of the (negated) DHTλ measure of Sarkar &
// Moore (KDD'10) with decay factor lambda: α = 1/(1−λ), β = −1/(1−λ)
// (Table II).
func DHTLambda(lambda float64) Params {
	return Params{Alpha: 1 / (1 - lambda), Beta: -1 / (1 - lambda), Lambda: lambda}
}

// Validate checks the Definition-5 constraints.
func (p Params) Validate() error {
	if !(p.Lambda > 0 && p.Lambda < 1) {
		return fmt.Errorf("dht: lambda must lie in (0,1), got %g", p.Lambda)
	}
	if p.Alpha <= 0 || math.IsNaN(p.Alpha) || math.IsInf(p.Alpha, 0) {
		// Both published parameterizations have α > 0, and the IDJ pruning
		// bounds (Lemma 2, Theorem 1) rely on it: with α > 0, h_l is
		// non-decreasing in l and X⁺ₗ/Y⁺ₗ bound the remaining mass above.
		return fmt.Errorf("dht: alpha must be finite and positive, got %g", p.Alpha)
	}
	if math.IsNaN(p.Beta) || math.IsInf(p.Beta, 0) {
		return fmt.Errorf("dht: beta must be finite, got %g", p.Beta)
	}
	return nil
}

// StepsForEpsilon returns the smallest walk length d such that
// |h(u,v) − h_d(u,v)| ≤ ε for every node pair (Lemma 1):
//
//	d ≥ log_λ( ε(1−λ) / (αλ) ).
//
// With the paper's defaults (DHTλ, λ=0.2, ε=1e-6) this returns 8. It panics
// unless eps > 0, so on NaN as well.
func (p Params) StepsForEpsilon(eps float64) int {
	if !(eps > 0) {
		panic(fmt.Sprintf("dht: epsilon must be positive, got %g", eps))
	}
	arg := eps * (1 - p.Lambda) / (math.Abs(p.Alpha) * p.Lambda)
	if arg >= 1 {
		return 1
	}
	d := math.Log(arg) / math.Log(p.Lambda)
	n := int(math.Ceil(d))
	if n < 1 {
		n = 1
	}
	return n
}

// Score folds truncated hitting probabilities P_1..P_d into h_d (Equation 4):
// h_d(u,v) = α · Σ_{i=1..d} λ^i·P_i + β.
func (p Params) Score(hitProbs []float64) float64 {
	var s float64
	pow := 1.0
	for _, pi := range hitProbs {
		pow *= p.Lambda
		s += pow * pi
	}
	return p.Alpha*s + p.Beta
}

// XBound returns X⁺ₗ = α·Σ_{i>l} λ^i = α·λ^(l+1)/(1−λ) (Lemma 2): the
// maximum mass h can still gain after step l, independent of the graph.
func (p Params) XBound(l int) float64 {
	return p.Alpha * math.Pow(p.Lambda, float64(l+1)) / (1 - p.Lambda)
}

// MaxScore returns the supremum of h: attained when P_1 = 1, i.e. αλ + β.
func (p Params) MaxScore() float64 { return p.Alpha*p.Lambda + p.Beta }

// MinScore returns the infimum of h_d: all hitting probabilities zero, i.e. β.
func (p Params) MinScore() float64 { return p.Beta }

// String renders the parameters compactly.
func (p Params) String() string {
	return fmt.Sprintf("DHT(α=%.4g, β=%.4g, λ=%.4g)", p.Alpha, p.Beta, p.Lambda)
}
