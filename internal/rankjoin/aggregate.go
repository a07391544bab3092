// Package rankjoin provides the rank-join substrate of the Partial Join
// framework (§IV): monotonic aggregate functions over query-graph edge
// scores, the HRJN corner-bound threshold τ and the round-robin pull
// strategy.
package rankjoin

import (
	"fmt"
	"math"
)

// Aggregate is a monotonic function f of the |E_Q| per-edge DHT scores
// (Definition 2). Monotonic means: raising any input never lowers the
// output — the property PBRJ's bounding relies on.
type Aggregate interface {
	// Name identifies the function in reports ("SUM", "MIN", …).
	Name() string
	// Combine folds the per-edge scores into the answer score. The input
	// slice must not be retained or modified.
	Combine(scores []float64) float64
}

type sumAgg struct{}

func (sumAgg) Name() string { return "SUM" }
func (sumAgg) Combine(s []float64) float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

type minAgg struct{}

func (minAgg) Name() string { return "MIN" }
func (minAgg) Combine(s []float64) float64 {
	m := math.Inf(1)
	for _, v := range s {
		if v < m {
			m = v
		}
	}
	return m
}

type maxAgg struct{}

func (maxAgg) Name() string { return "MAX" }
func (maxAgg) Combine(s []float64) float64 {
	m := math.Inf(-1)
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

type avgAgg struct{}

func (avgAgg) Name() string { return "AVG" }
func (avgAgg) Combine(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

var (
	// Sum adds the edge scores ("overall closeness", §III-A).
	Sum Aggregate = sumAgg{}
	// Min takes the weakest edge score — the paper's default f in §VII.
	Min Aggregate = minAgg{}
	// Max takes the strongest edge score.
	Max Aggregate = maxAgg{}
	// Avg averages the edge scores (SUM scaled by 1/|E_Q|).
	Avg Aggregate = avgAgg{}
)

// WeightedSum returns an aggregate computing Σ wᵢ·sᵢ. All weights must be
// non-negative to preserve monotonicity.
func WeightedSum(weights []float64) (Aggregate, error) {
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rankjoin: weight %d is %g; weights must be finite and >= 0", i, w)
		}
	}
	ws := make([]float64, len(weights))
	copy(ws, weights)
	return weightedSum{ws}, nil
}

type weightedSum struct{ w []float64 }

func (a weightedSum) Name() string { return "WSUM" }
func (a weightedSum) Combine(s []float64) float64 {
	if len(s) != len(a.w) {
		panic(fmt.Sprintf("rankjoin: WSUM over %d scores, want %d", len(s), len(a.w)))
	}
	var t float64
	for i, v := range s {
		t += a.w[i] * v
	}
	return t
}

// ByName resolves an aggregate from its report name. Used by the CLI tools.
func ByName(name string) (Aggregate, error) {
	switch name {
	case "SUM", "sum":
		return Sum, nil
	case "MIN", "min":
		return Min, nil
	case "MAX", "max":
		return Max, nil
	case "AVG", "avg":
		return Avg, nil
	}
	return nil, fmt.Errorf("rankjoin: unknown aggregate %q (want SUM, MIN, MAX, or AVG)", name)
}
