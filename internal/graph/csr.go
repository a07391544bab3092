package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// This file is the serialization seam between the immutable CSR graph and
// the persistent store (internal/store): raw access to the out-CSR arrays, a
// sort-free constructor that rebuilds a Graph from a previously-built CSR in
// O(|V|+|E|), a hook to install a persisted Stats summary without rescanning,
// and a deterministic edit operator the store's WAL replay is defined in
// terms of.

// CSR returns the graph's out-CSR arrays: outIndex (length NumNodes+1),
// outTo, and outW (length NumEdges each). The slices alias internal storage
// and must not be modified.
func (g *Graph) CSR() (outIndex []int64, outTo []NodeID, outW []float64) {
	return g.outIndex, g.outTo, g.outW
}

// RawLabels returns the node-label slice (nil when the graph is unlabeled).
// The slice aliases internal storage and must not be modified.
func (g *Graph) RawLabels() []string { return g.labels }

// PrimeStats installs a precomputed structural summary as the graph's cached
// Stats, so a graph loaded from a snapshot serves the query planner without
// paying the O(|V|+|E|) scan (plus union-find) on boot. It only takes effect
// if Stats has not been computed yet; later Stats calls return s verbatim.
func (g *Graph) PrimeStats(s Stats) {
	g.statsOnce.Do(func() { g.stats = s })
}

// NewFromCSR rebuilds a Graph directly from the out-CSR triple of a
// previously built graph (see CSR), recomputing transition probabilities and
// in-adjacency in O(|V|+|E|) — no edge sort, no duplicate merge. The input
// must satisfy the Builder's postconditions (monotone index, per-node targets
// strictly sorted, positive finite weights); violations are reported as
// errors, never panics, because the caller is typically deserializing
// untrusted bytes. labels may be nil or length n.
//
// The resulting graph is field-for-field identical to the graph the CSR was
// taken from: probabilities are recomputed with the same summation order the
// Builder uses, so joins over a reloaded graph are bit-identical to joins
// over the original.
func NewFromCSR(n int, outIndex []int64, outTo []NodeID, outW []float64, labels []string) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(outIndex) != n+1 {
		return nil, fmt.Errorf("graph: outIndex length %d, want %d", len(outIndex), n+1)
	}
	m := len(outTo)
	if len(outW) != m {
		return nil, fmt.Errorf("graph: outW length %d, want %d", len(outW), m)
	}
	if outIndex[0] != 0 || outIndex[n] != int64(m) {
		return nil, fmt.Errorf("graph: outIndex bounds [%d,%d], want [0,%d]", outIndex[0], outIndex[n], m)
	}
	g := &Graph{n: n, outIndex: outIndex, outTo: outTo, outW: outW}
	g.outP = make([]float64, m)
	for u := 0; u < n; u++ {
		lo, hi := outIndex[u], outIndex[u+1]
		if hi < lo || hi > int64(m) {
			return nil, fmt.Errorf("graph: out index not monotone at node %d", u)
		}
		var sum float64
		for j := lo; j < hi; j++ {
			v := outTo[j]
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: edge (%d,%d) target out of range", u, v)
			}
			if j > lo && v <= outTo[j-1] {
				return nil, fmt.Errorf("graph: out edges of %d not strictly sorted", u)
			}
			w := outW[j]
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", u, v, w)
			}
			sum += w
		}
		if sum > 0 {
			for j := lo; j < hi; j++ {
				g.outP[j] = outW[j] / sum
			}
		}
	}
	// In-adjacency, by the Builder's counting pass (walking the out-CSR in
	// order keeps in-lists sorted by source).
	g.inIndex = make([]int64, n+1)
	g.inFrom = make([]NodeID, m)
	g.inW = make([]float64, m)
	g.inP = make([]float64, m)
	for _, v := range outTo {
		g.inIndex[v+1]++
	}
	for u := 0; u < n; u++ {
		g.inIndex[u+1] += g.inIndex[u]
	}
	next := make([]int64, n)
	for u := 0; u < n; u++ {
		next[u] = g.inIndex[u]
	}
	for u := 0; u < n; u++ {
		for j := outIndex[u]; j < outIndex[u+1]; j++ {
			v := outTo[j]
			i := next[v]
			g.inFrom[i] = NodeID(u)
			g.inW[i] = outW[j]
			g.inP[i] = g.outP[j]
			next[v]++
		}
	}
	if labels != nil {
		if len(labels) != n {
			return nil, fmt.Errorf("graph: labels length %d, want %d", len(labels), n)
		}
		g.labels = labels
	}
	return g, nil
}

// Edge is one weighted directed arc, the unit of the store's edge WAL.
type Edge struct {
	U, V NodeID
	W    float64
}

// ApplyEdits returns a new graph with adds inserted and dels removed, leaving
// g untouched. Adding an arc that already exists sums the weights (the
// Builder's duplicate convention); deleting removes the single directed arc
// (u,v) entirely and ignores arcs that do not exist. Node ids in adds beyond
// g's range grow the node count; ids in dels beyond it are ignored. Within
// one call, deletions are applied after all additions. A summed weight that
// overflows to +Inf is an error.
//
// The operation is deterministic: the same (g, adds, dels) always produces
// the bit-identical graph — field for field the graph a Builder makes from
// the edited arc list — which is what makes WAL replay reproduce exactly the
// graph the live process had. Per-arc weights accumulate in a fixed order:
// g's weight first, then adds in argument order.
//
// Cost: O(|V| + |E| + b log b + a log a) for a batch of b edits whose rows
// (the sources it names) hold a arcs, with no map and no sort over |E|. The
// batch is merged into its rows; every other out-row, and every in-row not
// of a target of those rows, is copied as a contiguous range. Copying their
// transition probabilities is exact because every constructor computes a
// row's as w / Σrow summed in ascending target order, and an untouched row's
// weights are unchanged. A 4+4 edit takes ~0.16 ms on yeast (14.7k arcs) and
// ~2.7 ms on the 210k-arc youtube graph (BenchmarkApplyEdits).
func ApplyEdits(g *Graph, adds []Edge, dels [][2]NodeID) (*Graph, error) {
	n0 := g.NumNodes()
	n := n0
	for _, e := range adds {
		if e.U < 0 || e.V < 0 {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with negative endpoint", e.U, e.V)
		}
		if e.W <= 0 || math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, fmt.Errorf("graph: edit adds arc (%d,%d) with invalid weight %v", e.U, e.V, e.W)
		}
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	// The batch in row-major order. The stable sort keeps repeats of one arc
	// in argument order, the order their weights are summed in.
	add := slices.Clone(adds)
	slices.SortStableFunc(add, func(a, b Edge) int { return cmpArc(a.U, a.V, b.U, b.V) })
	del := make([][2]NodeID, 0, len(dels))
	for _, d := range dels {
		if d[0] >= 0 && d[1] >= 0 && int(d[0]) < n && int(d[1]) < n {
			del = append(del, d)
		}
	}
	slices.SortFunc(del, func(a, b [2]NodeID) int { return cmpArc(a[0], a[1], b[0], b[1]) })
	e, err := mergeRows(g, add, del)
	if err != nil {
		return nil, err
	}
	m := int64(g.NumEdges() - e.dropped + len(e.arcs.nbr))

	// Out-rows: the merged rows in place, every other row copied.
	oldOut := adjacency{g.outIndex, g.outTo, g.outW, g.outP}
	out := newAdjacency(n, m)
	var pos, start int64
	prev := 0
	for i, u := range e.rows {
		pos = out.copyRows(oldOut, prev, int(u), pos)
		out.index[u] = pos
		pos = out.put(pos, e.arcs, start, e.ends[i])
		prev, start = int(u)+1, e.ends[i]
	}
	out.copyRows(oldOut, prev, n, pos)
	out.index[n] = m

	// In-rows: only those of the merged rows' old and new targets change.
	// Each is its old list less the merged rows' arcs, merged by source with
	// their new arcs into it; every other in-row is copied.
	back, targets := e.reversed()
	oldIn := adjacency{g.inIndex, g.inFrom, g.inW, g.inP}
	in := newAdjacency(n, m)
	pos, prev = 0, 0
	k := 0
	for _, v := range targets {
		pos = in.copyRows(oldIn, prev, int(v), pos)
		in.index[v] = pos
		j, hi := oldIn.at(int(v)), oldIn.at(int(v)+1)
		for ; ; pos++ {
			for j < hi && e.has(oldIn.nbr[j]) {
				j++
			}
			if k < len(back) && back[k].v == v && (j == hi || back[k].u < oldIn.nbr[j]) {
				in.nbr[pos], in.w[pos], in.p[pos] = back[k].u, back[k].w, back[k].p
				k++
			} else if j < hi {
				in.nbr[pos], in.w[pos], in.p[pos] = oldIn.nbr[j], oldIn.w[j], oldIn.p[j]
				j++
			} else {
				break
			}
		}
		prev = int(v) + 1
	}
	in.copyRows(oldIn, prev, n, pos)
	in.index[n] = m

	var labels []string
	if slices.ContainsFunc(g.labels, func(l string) bool { return l != "" }) {
		labels = g.labels // immutable, so shared while n is unchanged
		if n > n0 {
			labels = make([]string, n)
			copy(labels, g.labels)
		}
	}
	return &Graph{
		n: n, outIndex: out.index, outTo: out.nbr, outW: out.w, outP: out.p,
		inIndex: in.index, inFrom: in.nbr, inW: in.w, inP: in.p, labels: labels,
	}, nil
}

// cmpArc orders arcs row-major: by source, then target.
func cmpArc(u1, v1, u2, v2 NodeID) int {
	if u1 != u2 {
		return cmp.Compare(u1, u2)
	}
	return cmp.Compare(v1, v2)
}

// adjacency is one CSR side with its weights: the unit ApplyEdits copies.
type adjacency struct {
	index []int64
	nbr   []NodeID
	w, p  []float64
}

func newAdjacency(n int, m int64) adjacency {
	return adjacency{make([]int64, n+1), make([]NodeID, m), make([]float64, m), make([]float64, m)}
}

// at is the offset row x starts at; rows past the side's node count are
// empty.
func (a adjacency) at(x int) int64 {
	if x >= len(a.index)-1 {
		return int64(len(a.nbr))
	}
	return a.index[x]
}

// put copies src's entries [lo, hi) to a from offset pos on and returns the
// offset after them.
func (a adjacency) put(pos int64, src adjacency, lo, hi int64) int64 {
	copy(a.nbr[pos:], src.nbr[lo:hi])
	copy(a.w[pos:], src.w[lo:hi])
	copy(a.p[pos:], src.p[lo:hi])
	return pos + hi - lo
}

// copyRows copies rows [x0, x1) of src to a from offset pos on — one range
// per array, the row offsets shifted — and returns the offset after them.
func (a adjacency) copyRows(src adjacency, x0, x1 int, pos int64) int64 {
	shift := pos - src.at(x0)
	for x := x0; x < x1; x++ {
		a.index[x] = src.at(x) + shift
	}
	return a.put(pos, src, src.at(x0), src.at(x1))
}

// editedRows is an edit batch merged into the out-rows it names.
type editedRows struct {
	rows    []NodeID  // ascending
	ends    []int64   // rows[i]'s arcs are arcs' entries [ends[i-1], ends[i])
	arcs    adjacency // index unused
	gone    []NodeID  // targets of deleted arcs
	dropped int       // arcs the rows had before the edit
}

// mergeRows merges add and del, both in row-major order, into g's rows. A
// row's arcs are its old arcs and its adds merged by target, each weight
// summed old weight first, then adds in order; arcs del names are dropped;
// transition probabilities are w / Σrow in target order, as the Builder
// computes them.
func mergeRows(g *Graph, add []Edge, del [][2]NodeID) (editedRows, error) {
	var e editedRows
	for ai, di := 0, 0; ai < len(add) || di < len(del); {
		u := NodeID(math.MaxInt32)
		if ai < len(add) {
			u = add[ai].U
		}
		if di < len(del) {
			u = min(u, del[di][0])
		}
		var to []NodeID
		var w []float64
		if int(u) < g.n {
			to, w, _ = g.OutEdges(u)
		}
		e.dropped += len(to)
		start := len(e.arcs.nbr)
		for j := 0; j < len(to) || (ai < len(add) && add[ai].U == u); {
			var v NodeID
			var wt float64
			if ai < len(add) && add[ai].U == u && (j == len(to) || add[ai].V <= to[j]) {
				v = add[ai].V
				if j < len(to) && to[j] == v {
					wt = w[j]
					j++
				}
				for ; ai < len(add) && add[ai].U == u && add[ai].V == v; ai++ {
					wt += add[ai].W
				}
			} else {
				v, wt = to[j], w[j]
				j++
			}
			for di < len(del) && del[di][0] == u && del[di][1] < v {
				di++
			}
			if di < len(del) && del[di][0] == u && del[di][1] == v {
				e.gone = append(e.gone, v)
				continue
			}
			if math.IsInf(wt, 0) {
				return e, fmt.Errorf("graph: edit sums arc (%d,%d) to invalid weight %v", u, v, wt)
			}
			e.arcs.nbr = append(e.arcs.nbr, v)
			e.arcs.w = append(e.arcs.w, wt)
		}
		for di < len(del) && del[di][0] == u {
			di++
		}
		var sum float64
		for _, x := range e.arcs.w[start:] {
			sum += x
		}
		for _, x := range e.arcs.w[start:] {
			e.arcs.p = append(e.arcs.p, x/sum)
		}
		e.rows = append(e.rows, u)
		e.ends = append(e.ends, int64(len(e.arcs.nbr)))
	}
	return e, nil
}

// has reports whether u is one of the merged rows.
func (e editedRows) has(u NodeID) bool {
	_, ok := slices.BinarySearch(e.rows, u)
	return ok
}

// inArc is arc (u, v) as v's in-list holds it.
type inArc struct {
	v, u NodeID
	w, p float64
}

// reversed returns the merged rows' arcs in (target, source) order — the
// order in-lists hold them — and the ascending targets whose in-lists the
// edit changes: those of the new arcs and of the deleted ones.
func (e editedRows) reversed() ([]inArc, []NodeID) {
	back := make([]inArc, 0, len(e.arcs.nbr))
	targets := append(make([]NodeID, 0, len(e.arcs.nbr)+len(e.gone)), e.gone...)
	var start int64
	for i, u := range e.rows {
		for j := start; j < e.ends[i]; j++ {
			back = append(back, inArc{e.arcs.nbr[j], u, e.arcs.w[j], e.arcs.p[j]})
			targets = append(targets, e.arcs.nbr[j])
		}
		start = e.ends[i]
	}
	slices.SortFunc(back, func(a, b inArc) int { return cmpArc(a.v, a.u, b.v, b.u) })
	slices.Sort(targets)
	return back, slices.Compact(targets)
}
