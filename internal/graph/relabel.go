package graph

import (
	"fmt"
	"sort"
)

// Relabeling is a bijective old↔new node-id map produced by a locality
// ordering. It is applied at build/load time (Apply rebuilds the CSR under
// the new ids) and inverted on output (ToOld maps result ids back), so
// callers keep speaking the original id space while the walk kernels scan a
// cache-friendlier CSR: hot high-degree rows cluster at the front of every
// array, and BFS ordering additionally keeps a frontier's neighbors in
// nearby blocks.
type Relabeling struct {
	oldToNew, newToOld []NodeID
}

// NumNodes returns the number of nodes the relabeling covers.
func (r *Relabeling) NumNodes() int { return len(r.oldToNew) }

// ToNew maps an original node id into the relabeled graph.
func (r *Relabeling) ToNew(u NodeID) NodeID { return r.oldToNew[u] }

// ToOld maps a relabeled node id back to the original graph.
func (r *Relabeling) ToOld(u NodeID) NodeID { return r.newToOld[u] }

// MapToNew returns a new slice with every id mapped into the relabeled
// graph.
func (r *Relabeling) MapToNew(ids []NodeID) []NodeID {
	out := make([]NodeID, len(ids))
	for i, u := range ids {
		out[i] = r.oldToNew[u]
	}
	return out
}

// MapToOld returns a new slice with every id mapped back to the original
// graph.
func (r *Relabeling) MapToOld(ids []NodeID) []NodeID {
	out := make([]NodeID, len(ids))
	for i, u := range ids {
		out[i] = r.newToOld[u]
	}
	return out
}

// MapSetToNew returns the node set expressed in the relabeled id space,
// preserving the set's name and member order.
func (r *Relabeling) MapSetToNew(s *NodeSet) *NodeSet {
	return NewNodeSet(s.Name, r.MapToNew(s.Nodes()))
}

// fromOrder builds the bijection from a visit order: order[i] is the old id
// that becomes new id i.
func fromOrder(order []NodeID) *Relabeling {
	r := &Relabeling{
		oldToNew: make([]NodeID, len(order)),
		newToOld: order,
	}
	for newID, oldID := range order {
		r.oldToNew[oldID] = NodeID(newID)
	}
	return r
}

// degreeOrder lists the nodes by descending total degree (in + out arcs),
// ties broken by ascending old id so the ordering is deterministic.
func degreeOrder(g *Graph) []NodeID {
	order := make([]NodeID, g.NumNodes())
	for u := range order {
		order[u] = NodeID(u)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di := g.OutDegree(order[i]) + g.InDegree(order[i])
		dj := g.OutDegree(order[j]) + g.InDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	return order
}

// DegreeOrder returns the degree-descending relabeling of g: hot rows — the
// ones every dense sweep and most frontiers touch — move to the front of
// the CSR arrays and the walk vectors, where they share cache lines.
func DegreeOrder(g *Graph) *Relabeling {
	return fromOrder(degreeOrder(g))
}

// BFSOrder returns a breadth-first relabeling of g: nodes are numbered in
// BFS visit order over out-edges, components seeded from the unvisited node
// of highest total degree. Neighbors end up in nearby id blocks, so a walk
// frontier's mass occupies adjacent cache lines.
func BFSOrder(g *Graph) *Relabeling {
	n := g.NumNodes()
	seeds := degreeOrder(g)
	order := make([]NodeID, 0, n)
	visited := make([]bool, n)
	queue := make([]NodeID, 0, n)
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			to, _, _ := g.OutEdges(u)
			for _, v := range to {
				if !visited[v] {
					visited[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return fromOrder(order)
}

// Apply rebuilds g's CSR under the relabeling: arc (u, v, w) becomes
// (ToNew(u), ToNew(v), w), labels follow their nodes. Transition
// probabilities are recomputed from the same per-row weights, so every row
// of the relabeled graph carries the identical distribution — walks produce
// the same scores up to floating-point summation order (neighbor order
// within a row changes, so scores are equal to ~1 ulp, not bit-identical;
// the round-trip property tests pin this).
func (r *Relabeling) Apply(g *Graph) *Graph {
	b := NewBuilder(g.NumNodes(), true)
	for u := 0; u < g.NumNodes(); u++ {
		nu := r.oldToNew[u]
		to, w, _ := g.OutEdges(NodeID(u))
		for j := range to {
			b.AddEdge(nu, r.oldToNew[to[j]], w[j])
		}
		if l := g.Label(NodeID(u)); l != "" {
			b.SetLabel(nu, l)
		}
	}
	return b.Build()
}

// RelabelDegree applies the degree-descending ordering and returns the
// relabeled graph with its id map.
func RelabelDegree(g *Graph) (*Graph, *Relabeling) {
	r := DegreeOrder(g)
	return r.Apply(g), r
}

// RelabelBFS applies the BFS ordering and returns the relabeled graph with
// its id map.
func RelabelBFS(g *Graph) (*Graph, *Relabeling) {
	r := BFSOrder(g)
	return r.Apply(g), r
}

// RelabelMode selects the locality-aware node ordering applied to a graph
// before a join. The walk kernels scan the CSR row arrays and O(|V|) mass
// vectors constantly; reordering nodes so hot rows cluster (degree) or
// neighborhoods stay in nearby blocks (BFS) makes those scans
// cache-friendlier without changing any score beyond floating-point
// summation order within a row.
type RelabelMode int

const (
	// NoRelabel keeps the graph as built (the default).
	NoRelabel RelabelMode = iota
	// ByDegree orders nodes by descending total degree.
	ByDegree
	// ByBFS orders nodes in breadth-first visit order from high-degree
	// roots.
	ByBFS
)

// String names the mode.
func (m RelabelMode) String() string {
	switch m {
	case ByDegree:
		return "degree"
	case ByBFS:
		return "bfs"
	default:
		return "off"
	}
}

// ParseRelabelMode resolves the String form ("off", "degree", "bfs").
func ParseRelabelMode(s string) (RelabelMode, error) {
	switch s {
	case "", "off":
		return NoRelabel, nil
	case "degree":
		return ByDegree, nil
	case "bfs":
		return ByBFS, nil
	}
	return NoRelabel, fmt.Errorf("graph: unknown relabel mode %q (want off, degree, or bfs)", s)
}

// Relabel returns the graph reordered under the given mode together with the
// id map (nil for NoRelabel, meaning the graph is returned unchanged).
func Relabel(g *Graph, mode RelabelMode) (*Graph, *Relabeling) {
	switch mode {
	case ByDegree:
		return RelabelDegree(g)
	case ByBFS:
		return RelabelBFS(g)
	default:
		return g, nil
	}
}

// Relabeled returns g reordered under mode with its id map, built on first
// use and cached for the graph's lifetime (graphs are immutable, and the
// O(|E| log |E|) rebuild must not be paid per query). Concurrent first
// callers of one mode share a single build. NoRelabel is the identity:
// (g, nil).
func (g *Graph) Relabeled(mode RelabelMode) (*Graph, *Relabeling) {
	if mode != ByDegree && mode != ByBFS {
		return g, nil
	}
	c := &g.relabeled[mode-ByDegree]
	c.once.Do(func() { c.g, c.r = Relabel(g, mode) })
	return c.g, c.r
}
