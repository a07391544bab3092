package dhtjoin

import "repro/internal/graph"

// Relabeling is the old↔new node-id bijection of a locality ordering; see
// Relabel.
type Relabeling = graph.Relabeling

// RelabelMode selects the locality-aware node ordering applied to the graph
// before a join (see graph.RelabelMode, which this aliases). The walk kernels
// scan the CSR row arrays and O(|V|) mass vectors constantly; reordering
// nodes so hot rows cluster (degree) or neighborhoods stay in nearby blocks
// (BFS) makes those scans cache-friendlier without changing any score beyond
// floating-point summation order within a row.
type RelabelMode = graph.RelabelMode

const (
	// RelabelOff runs joins on the graph as built (the default).
	RelabelOff = graph.NoRelabel
	// RelabelDegree orders nodes by descending total degree.
	RelabelDegree = graph.ByDegree
	// RelabelBFS orders nodes in breadth-first visit order from high-degree
	// roots.
	RelabelBFS = graph.ByBFS
)

// Relabel returns the graph reordered under the given mode together with
// the id map: feed the relabeled graph and Relabeling.MapToNew'd node sets
// to the joins, and Relabeling.ToOld the result ids. Callers that keep a
// graph around should relabel once and reuse the pair; the Options.Relabel
// knob does exactly that internally (the graph caches its reorderings).
func Relabel(g *Graph, mode RelabelMode) (*Graph, *Relabeling) {
	return graph.Relabel(g, mode)
}
