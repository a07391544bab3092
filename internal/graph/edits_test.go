package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// applyEditsReference is ApplyEdits as it stood through PR 24: every arc of
// g through a map, the edited arc list through Builder.Build's sort. It is
// the oracle the row merge must equal field for field.
func applyEditsReference(g *Graph, adds []Edge, dels [][2]NodeID) (*Graph, error) {
	n := g.NumNodes()
	for _, e := range adds {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with negative endpoint", e.U, e.V)
		}
		if e.W <= 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with invalid weight %v", e.U, e.V, e.W)
		}
		if int(e.U) >= n {
			n = int(e.U) + 1
		}
		if int(e.V) >= n {
			n = int(e.V) + 1
		}
	}
	type arc struct{ u, v NodeID }
	weight := make(map[arc]float64, g.NumEdges()+len(adds))
	for u := 0; u < g.NumNodes(); u++ {
		to, w, _ := g.OutEdges(NodeID(u))
		for j := range to {
			weight[arc{NodeID(u), to[j]}] += w[j]
		}
	}
	for _, e := range adds {
		weight[arc{e.U, e.V}] += e.W
	}
	for _, d := range dels {
		delete(weight, arc{d[0], d[1]})
	}
	b := NewBuilder(n, true)
	for a, w := range weight {
		b.AddEdge(a.u, a.v, w)
	}
	for u := 0; u < g.NumNodes(); u++ {
		if l := g.Label(NodeID(u)); l != "" {
			b.SetLabel(NodeID(u), l)
		}
	}
	return b.Build(), nil
}

// graphDiff names the first field in which a and b differ ("" when none).
// Slices compare with reflect.DeepEqual: element for element, and nil is
// not empty.
func graphDiff(a, b *Graph) string {
	if a.n != b.n {
		return fmt.Sprintf("n: %d vs %d", a.n, b.n)
	}
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"outIndex", a.outIndex, b.outIndex}, {"outTo", a.outTo, b.outTo},
		{"outW", a.outW, b.outW}, {"outP", a.outP, b.outP},
		{"inIndex", a.inIndex, b.inIndex}, {"inFrom", a.inFrom, b.inFrom},
		{"inW", a.inW, b.inW}, {"inP", a.inP, b.inP},
		{"labels", a.labels, b.labels},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			return fmt.Sprintf("%s: %v vs %v", f.name, f.x, f.y)
		}
	}
	return ""
}

// cloneGraph copies g's slices, so a later graphDiff shows whether g changed.
func cloneGraph(g *Graph) *Graph {
	return &Graph{
		n: g.n, outIndex: slices.Clone(g.outIndex), outTo: slices.Clone(g.outTo),
		outW: slices.Clone(g.outW), outP: slices.Clone(g.outP),
		inIndex: slices.Clone(g.inIndex), inFrom: slices.Clone(g.inFrom),
		inW: slices.Clone(g.inW), inP: slices.Clone(g.inP), labels: slices.Clone(g.labels),
	}
}

// editWeights are arc weights whose sums round: the order they are added in
// shows in the low bits.
var editWeights = []float64{1, 0.5, 1.0 / 3, 0.1, 2.7, 7, 1e-3}

// randomEditGraph is a small graph with sinks (most nodes of a sparse graph),
// self-loops, and no labels, some labels, or a label slice of empty strings.
func randomEditGraph(rng *rand.Rand) *Graph {
	n := rng.Intn(25)
	b := NewBuilder(n, rng.Intn(4) > 0)
	for i := rng.Intn(3*n + 1); n > 0 && i > 0; i-- {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if rng.Intn(8) == 0 {
			v = u
		}
		b.AddEdge(u, v, editWeights[rng.Intn(len(editWeights))])
	}
	switch rng.Intn(3) {
	case 1:
		for u := 0; u < n; u += 1 + rng.Intn(3) {
			b.SetLabel(NodeID(u), fmt.Sprint("node", u))
		}
	case 2:
		if n > 0 {
			b.SetLabel(0, "")
		}
	}
	return b.Build()
}

// randomEditBatch draws an edit of g: adds between existing nodes, onto
// existing arcs, repeated within the batch, as self-loops, and growing n;
// deletes of existing arcs, of arcs the batch adds, of absent arcs, and of
// arcs with negative or out-of-range endpoints.
func randomEditBatch(rng *rand.Rand, g *Graph) ([]Edge, [][2]NodeID) {
	n := g.NumNodes()
	node := func(span int) NodeID { return NodeID(rng.Intn(span)) }
	existing := func() (NodeID, NodeID, bool) {
		for try := 0; try < 8 && n > 0; try++ {
			u := node(n)
			if to, _, _ := g.OutEdges(u); len(to) > 0 {
				return u, to[rng.Intn(len(to))], true
			}
		}
		return 0, 0, false
	}
	var adds []Edge
	for i := rng.Intn(7); i > 0; i-- {
		e := Edge{U: node(n + 1), V: node(n + 1), W: editWeights[rng.Intn(len(editWeights))]}
		switch rng.Intn(6) {
		case 1:
			if len(adds) > 0 {
				a := adds[rng.Intn(len(adds))]
				e.U, e.V = a.U, a.V
			}
		case 2:
			if u, v, ok := existing(); ok {
				e.U, e.V = u, v
			}
		case 3:
			e.V = e.U
		case 4:
			e.U = NodeID(n + rng.Intn(3))
		}
		adds = append(adds, e)
	}
	var dels [][2]NodeID
	for i := rng.Intn(6); i > 0; i-- {
		d := [2]NodeID{node(n + 1), node(n + 1)}
		switch rng.Intn(6) {
		case 1:
			if u, v, ok := existing(); ok {
				d = [2]NodeID{u, v}
			}
		case 2:
			if len(adds) > 0 {
				a := adds[rng.Intn(len(adds))]
				d = [2]NodeID{a.U, a.V}
			}
		case 3:
			d = [][2]NodeID{{-1, 0}, {0, -3}, {-1, -1}}[rng.Intn(3)]
		case 4:
			d = [][2]NodeID{{NodeID(n + 50), 0}, {0, NodeID(n + 50)}, {math.MaxInt32, math.MaxInt32}}[rng.Intn(3)]
		}
		dels = append(dels, d)
	}
	return adds, dels
}

// TestApplyEditsMatchesReference: on 400 random graphs, each edited five
// times in a chain, the row merge builds the reference's graph field for
// field, the result validates, and the input graph is left as it was.
func TestApplyEditsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for c := 0; c < 400; c++ {
		g := randomEditGraph(rng)
		for step := 0; step < 5; step++ {
			adds, dels := randomEditBatch(rng, g)
			before := cloneGraph(g)
			got, err := ApplyEdits(g, adds, dels)
			if err != nil {
				t.Fatalf("case %d step %d: %v", c, step, err)
			}
			want, _ := applyEditsReference(g, adds, dels)
			if diff := graphDiff(got, want); diff != "" {
				t.Fatalf("case %d step %d: adds %v dels %v: %s", c, step, adds, dels, diff)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("case %d step %d: %v", c, step, err)
			}
			if diff := graphDiff(g, before); diff != "" {
				t.Fatalf("case %d step %d: input graph changed: %s", c, step, diff)
			}
			g = got
		}
	}
}

// TestApplyEditsCorners pins the cases a random batch reaches rarely: the
// zero Graph, an empty batch (a copy, not g itself), one arc added three
// times and deleted in the same call, and a batch of deletes only.
func TestApplyEditsCorners(t *testing.T) {
	tri := NewBuilder(3, true)
	tri.AddEdge(0, 1, 1)
	tri.AddEdge(1, 2, 0.1)
	tri.AddEdge(2, 0, 1.0/3)
	tri.SetLabel(1, "b")
	g := tri.Build()
	// Past 12 elements an unstable sort reorders equal keys, and with them
	// the order a repeated arc's weights are summed in.
	var repeats []Edge
	for i := 0; i < 64; i++ {
		repeats = append(repeats, Edge{U: NodeID(i % 3), V: NodeID(i % 2), W: editWeights[i%len(editWeights)]})
	}
	for _, tc := range []struct {
		name string
		g    *Graph
		adds []Edge
		dels [][2]NodeID
	}{
		{"zero graph", new(Graph), nil, nil},
		{"zero graph grown", new(Graph), []Edge{{U: 2, V: 0, W: 1}}, [][2]NodeID{{0, 0}}},
		{"empty batch", g, nil, nil},
		{"sum of repeats", g, []Edge{{U: 0, V: 1, W: 0.1}, {U: 0, V: 1, W: 0.2}, {U: 0, V: 1, W: 0.3}}, nil},
		{"64 repeats of six arcs", g, repeats, nil},
		{"add then delete", g, []Edge{{U: 0, V: 2, W: 1}, {U: 0, V: 2, W: 2}}, [][2]NodeID{{0, 2}, {0, 2}}},
		{"deletes only", g, nil, [][2]NodeID{{1, 2}, {2, 1}, {9, 9}, {-1, 0}}},
		{"delete a whole row", g, []Edge{{U: 4, V: 4, W: 1}}, [][2]NodeID{{0, 1}}},
	} {
		got, err := ApplyEdits(tc.g, tc.adds, tc.dels)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, _ := applyEditsReference(tc.g, tc.adds, tc.dels)
		if diff := graphDiff(got, want); diff != "" {
			t.Fatalf("%s: %s", tc.name, diff)
		}
		if got == tc.g {
			t.Fatalf("%s: returned its input", tc.name)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestApplyEditsRejects: an add with a negative endpoint or a weight that is
// not positive and finite is refused, and so is a batch whose repeated adds
// sum an arc's weight past the largest float64 (the map-and-Builder
// implementation panicked there).
func TestApplyEditsRejects(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, math.MaxFloat64)
	g := b.Build()
	for _, tc := range []struct {
		adds []Edge
		want string
	}{
		{[]Edge{{U: -1, V: 0, W: 1}}, "negative endpoint"},
		{[]Edge{{U: 0, V: -1, W: 1}}, "negative endpoint"},
		{[]Edge{{U: 0, V: 1, W: 0}}, "invalid weight"},
		{[]Edge{{U: 0, V: 1, W: math.NaN()}}, "invalid weight"},
		{[]Edge{{U: 0, V: 1, W: math.Inf(1)}}, "invalid weight"},
		{[]Edge{{U: 0, V: 1, W: math.MaxFloat64}}, "sums arc (0,1) to invalid weight +Inf"},
		{[]Edge{{U: 1, V: 0, W: math.MaxFloat64}, {U: 1, V: 0, W: math.MaxFloat64}}, "sums arc (1,0)"},
	} {
		if _, err := ApplyEdits(g, tc.adds, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("adds %v: error %v, want one containing %q", tc.adds, err, tc.want)
		}
	}
	// Deleting the arc the sum overflows on leaves nothing to reject.
	if _, err := ApplyEdits(g, []Edge{{U: 0, V: 1, W: math.MaxFloat64}}, [][2]NodeID{{0, 1}}); err != nil {
		t.Fatal(err)
	}
}
