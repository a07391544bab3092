package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// resultSet is a -out file: for each workload and metric, one value per run
// appended to it. Two sets of runs of one commit, or one set each of a
// parent and a change, are what -compare reads.
type resultSet map[string]map[string][]float64

func readSet(path string) (resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rs, nil
}

// appendToSet adds one run's metrics (and its error rate) to the set file.
func appendToSet(path, workload string, defs []metricDef, got map[string]value, errorRate float64) error {
	rs, err := readSet(path)
	if errors.Is(err, os.ErrNotExist) {
		rs, err = resultSet{}, nil
	}
	if err != nil {
		return err
	}
	if rs[workload] == nil {
		rs[workload] = make(map[string][]float64)
	}
	for _, d := range defs {
		if v, ok := got[d.Name]; ok {
			rs[workload][d.Name] = append(rs[workload][d.Name], v.Value)
		}
	}
	rs[workload]["error_rate"] = append(rs[workload]["error_rate"], errorRate)
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the acceptance rule is stated in. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	n := len(xs)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4) // after clamping j, so the ends extrapolate as Python's do
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(slices.Clone(xs))
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// compareSets applies BENCHMARK.json's bounds to two result sets, B against
// A, and prints one verdict per workload of A (gated by BENCHMARK.json or
// not) x end-to-end metric: regressed when
// B's median is worse than A's by more than the bound, unresolved when
// either set's own spread is wider than the bound (the sets cannot resolve a
// difference that small), ok otherwise. It returns an error on a regression.
func compareSets(w io.Writer, bf *benchmarkFile, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "bound", "verdict")
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for _, d := range bf.EndToEnd {
			xa, xb := a[name][d.Name], b[name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(slices.Clone(xa)), median(slices.Clone(xb))
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, d.Name, ma, mb, (mb-ma)/ma*100, sa*100, sb*100, d.Bound*100, verdict)
		}
		// error_rate must not rise at all.
		if ea, eb := a[name]["error_rate"], b[name]["error_rate"]; len(ea) > 0 && len(eb) > 0 {
			verdict := "ok"
			if slices.Max(eb) > slices.Max(ea) {
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-16s %12.6f %12.6f %58s\n", name, "error_rate (max)", slices.Max(ea), slices.Max(eb), verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed", regressed)
	}
	return nil
}
