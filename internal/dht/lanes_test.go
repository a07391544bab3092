package dht

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// eachLaneBody runs f once per body of the lane kernel — "go" with the
// switch off, "asm" with it on — and restores the switch. The asm run skips
// on a machine that cannot execute the assembly, naming what is missing.
func eachLaneBody(t *testing.T, f func(t *testing.T)) {
	for _, asm := range []bool{false, true} {
		name := "go"
		if asm {
			name = "asm"
		}
		t.Run(name, func(t *testing.T) {
			if asm && asmMissing != "" {
				t.Skipf("no assembly lane kernel to run: %s", asmMissing)
			}
			defer func(was bool) { useAsm = was }(useAsm)
			useAsm = asm
			f(t)
		})
	}
}

// laneTestSide is a random CSR side over n nodes with sinks (empty rows),
// self-loops and strictly ascending neighbour lists, as graph.CSR promises.
func laneTestSide(rng *rand.Rand, n int) graph.CSR {
	side := graph.CSR{Index: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		var nbrs []graph.NodeID
		if v%5 != 2 { // every fifth node is a sink
			for k := rng.Intn(7); k > 0; k-- {
				nbrs = append(nbrs, graph.NodeID(rng.Intn(n)))
			}
			if v%7 == 0 {
				nbrs = append(nbrs, graph.NodeID(v)) // a self-loop
			}
			slices.Sort(nbrs)
			nbrs = slices.Compact(nbrs)
		}
		side.Nbr = append(side.Nbr, nbrs...)
		for range nbrs {
			side.P = append(side.P, rng.Float64())
		}
		side.Index[v+1] = int64(len(side.Nbr))
	}
	return side
}

// laneTestMass fills the aw active lanes of a node-major mass vector with
// positive values of widely spread magnitude (so a fused multiply-add or a
// reordered sum would round differently), leaving roughly a third of the
// blocks all-zero and single lanes of others zero.
func laneTestMass(rng *rand.Rand, n, w, aw int) []float64 {
	m := make([]float64, n*w)
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			continue
		}
		for c := 0; c < aw; c++ {
			if rng.Intn(4) != 0 {
				m[v*w+c] = rng.Float64() * float64(uint64(1)<<rng.Intn(40)) / (1 << 20)
			}
		}
	}
	return m
}

// TestLaneKernelsBitIdentical compares the two bodies of each primitive ==
// on every lane of next: random sides with sinks, self-loops, empty rows and
// all-zero blocks, every active width, rows nil / sparse / full, scatter
// into a populated next, and gather over a populated next (which it must
// overwrite at its rows and leave alone elsewhere).
func TestLaneKernelsBitIdentical(t *testing.T) {
	if asmMissing != "" {
		t.Skipf("no assembly lane kernel to compare: %s", asmMissing)
	}
	defer func(was bool) { useAsm = was }(useAsm)
	const w = laneWidth
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 9, 64, 301} {
		side := laneTestSide(rng, n)
		full := make([]graph.NodeID, n)
		for v := range full {
			full[v] = graph.NodeID(v)
		}
		sparse := []graph.NodeID{graph.NodeID(n - 1), 0, graph.NodeID(n / 2), 0} // unsorted, with a repeat
		for v := 0; v < n; v += 3 {
			sparse = append(sparse, graph.NodeID(v))
		}
		for aw := 1; aw <= w; aw++ {
			cur := laneTestMass(rng, n, w, aw)
			seed := laneTestMass(rng, n, w, aw)
			for ri, rows := range [][]graph.NodeID{nil, sparse, full, {}} {
				for _, prim := range []struct {
					name string
					run  func(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID)
				}{{"scatter", scatter}, {"gather", gather}} {
					var got [2][]float64
					for body, asm := range []bool{false, true} {
						useAsm = asm
						got[body] = slices.Clone(seed)
						prim.run(slices.Clone(cur), got[body], w, aw, side, rows)
					}
					changed := false
					for i := range seed {
						if got[0][i] != got[1][i] {
							t.Fatalf("%s n=%d aw=%d rows#%d: next[%d] (node %d lane %d) go %v != asm %v",
								prim.name, n, aw, ri, i, i/w, i%w, got[0][i], got[1][i])
						}
						changed = changed || got[0][i] != seed[i]
					}
					if wantChange := ri != 3 && n > 9; wantChange && !changed {
						t.Fatalf("%s n=%d aw=%d rows#%d changed nothing: the comparison is vacuous", prim.name, n, aw, ri)
					}
				}
			}
		}
	}
}

// TestLaneKernelPreconditions: every violated precondition panics in the Go
// wrapper, under either body, before anything is written to next; the empty
// cases return without touching next (or taking the address of nothing).
func TestLaneKernelPreconditions(t *testing.T) {
	const n, w = 6, laneWidth
	rng := rand.New(rand.NewSource(5))
	side := laneTestSide(rng, n)
	good := func() (cur, next []float64) { return laneTestMass(rng, n, w, w), make([]float64, n*w) }
	short := func(s graph.CSR, f func(*graph.CSR)) graph.CSR { f(&s); return s }
	type args struct {
		cur, next []float64
		w, aw     int
		side      graph.CSR
		rows      []graph.NodeID
	}
	cases := map[string]func() args{
		"cur shorter than n·w":  func() args { c, x := good(); return args{c[:len(c)-1], x, w, w, side, nil} },
		"next shorter than cur": func() args { c, x := good(); return args{c, x[:len(x)-w], w, w, side, nil} },
		"both one node short":   func() args { c, x := good(); return args{c[w:], x[w:], w, w, side, nil} },
		"aw above w":            func() args { c, x := good(); return args{c, x, w, w + 1, side, nil} },
		"aw zero":               func() args { c, x := good(); return args{c, x, w, 0, side, nil} },
		"Index one short": func() args {
			c, x := good()
			return args{c, x, w, w, short(side, func(s *graph.CSR) { s.Index = s.Index[:n] }), nil}
		},
		"Index[n] beyond Nbr": func() args {
			c, x := good()
			return args{c, x, w, w, short(side, func(s *graph.CSR) { s.Nbr = s.Nbr[:len(s.Nbr)-1] }), nil}
		},
		"P shorter than Nbr": func() args {
			c, x := good()
			return args{c, x, w, w, short(side, func(s *graph.CSR) { s.P = s.P[:len(s.P)-1] }), nil}
		},
		"row id n":        func() args { c, x := good(); return args{c, x, w, w, side, []graph.NodeID{0, n}} },
		"row id negative": func() args { c, x := good(); return args{c, x, w, w, side, []graph.NodeID{1, -1}} },
		"rows over an empty graph": func() args {
			return args{nil, nil, w, w, graph.CSR{}, []graph.NodeID{0}}
		},
	}
	empty := map[string]func() args{
		"zero graph":      func() args { return args{nil, nil, w, w, graph.CSR{}, nil} },
		"no nodes":        func() args { return args{nil, nil, w, w, graph.CSR{Index: []int64{0}}, nil} },
		"empty row list":  func() args { c, x := good(); return args{c, x, w, w, side, []graph.NodeID{}} },
		"empty edge list": func() args { c, x := good(); return args{c, x, w, w, graph.CSR{Index: make([]int64, n+1)}, nil} },
	}
	prims := map[string]func(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID){"scatter": scatter, "gather": gather}
	eachLaneBody(t, func(t *testing.T) {
		for pname, prim := range prims {
			for name, mk := range cases {
				a := mk()
				before := slices.Clone(a.next)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s, %s: no panic", pname, name)
						}
					}()
					prim(a.cur, a.next, a.w, a.aw, a.side, a.rows)
				}()
				if !slices.Equal(a.next, before) {
					t.Errorf("%s, %s: next was written before the panic", pname, name)
				}
			}
			for name, mk := range empty {
				a := mk()
				before := slices.Clone(a.next)
				prim(a.cur, a.next, a.w, a.aw, a.side, a.rows)
				// A gather over every row of an edgeless side would be all
				// zeros; next starts as zeros here, so "unchanged" holds too.
				if !slices.Equal(a.next, before) {
					t.Errorf("%s, %s: next changed", pname, name)
				}
			}
		}
		// gather assigns: over a side without edges the sums are empty, so it
		// writes +0 at its rows and nothing elsewhere.
		cur, next := good()
		for i := range next {
			next[i] = 1
		}
		gather(cur, next, w, w, graph.CSR{Index: make([]int64, n+1)}, []graph.NodeID{2})
		for i, m := range next {
			if atRow := i/w == 2; (m == 0) != atRow || !atRow && m != 1 {
				t.Errorf("edgeless gather at row 2: next[%d] = %v", i, m)
			}
		}
	})
}

// BenchmarkLaneKernels is one dense step of the batched walk over the
// join2_cold graph: a scatter from every node along in-edges and the same
// step as a gather along out-edges, at full and half active width, under
// each body.
func BenchmarkLaneKernels(b *testing.B) {
	ds, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.Graph
	const w = laneWidth
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(1))
	for _, prim := range []struct {
		name string
		run  func(cur, next []float64, w, aw int, side graph.CSR, rows []graph.NodeID)
		side graph.CSR
	}{{"scatter", scatter, g.In()}, {"gather", gather, g.Out()}} {
		for _, aw := range []int{4, w} {
			cur := make([]float64, n*w)
			for v := 0; v < n; v++ {
				for c := 0; c < aw; c++ {
					cur[v*w+c] = rng.Float64()
				}
			}
			next := make([]float64, n*w)
			for _, asm := range []bool{false, true} {
				body := "go"
				if asm {
					body = "asm"
				}
				b.Run(fmt.Sprintf("%s/aw=%d/%s", prim.name, aw, body), func(b *testing.B) {
					if asm && asmMissing != "" {
						b.Skipf("no assembly lane kernel to run: %s", asmMissing)
					}
					defer func(was bool) { useAsm = was }(useAsm)
					useAsm = asm
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						clear(next)
						prim.run(cur, next, w, aw, prim.side, nil)
					}
					b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				})
			}
		}
	}
}
