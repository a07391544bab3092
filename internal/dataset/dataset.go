// Package dataset builds the synthetic stand-ins for the paper's three real
// evaluation graphs — DBLP (bibliographic co-authorship), Yeast
// (protein-protein interaction), and YouTube (social sharing) — plus the
// test/true graph splits used by the link- and 3-clique-prediction
// experiments (§VII-B). See DESIGN.md §4 for the substitution rationale: the
// generators match each dataset's scale class, weighting, and community
// structure so that every algorithm code path and every reported trend is
// exercised, without the proprietary data.
package dataset

import (
	"fmt"

	"repro/internal/graph"
)

// Dataset is a graph with its named node sets.
type Dataset struct {
	Name  string
	Graph *graph.Graph
	Sets  []*graph.NodeSet

	byName map[string]*graph.NodeSet
}

func newDataset(name string, g *graph.Graph, sets []*graph.NodeSet) *Dataset {
	d := &Dataset{Name: name, Graph: g, Sets: sets, byName: make(map[string]*graph.NodeSet, len(sets))}
	for _, s := range sets {
		d.byName[s.Name] = s
	}
	return d
}

// Set returns the node set with the given name.
func (d *Dataset) Set(name string) (*graph.NodeSet, error) {
	s, ok := d.byName[name]
	if !ok {
		return nil, fmt.Errorf("dataset %s: no node set %q", d.Name, name)
	}
	return s, nil
}

// MustSet is Set for callers with static names; it panics on unknown names.
func (d *Dataset) MustSet(name string) *graph.NodeSet {
	s, err := d.Set(name)
	if err != nil {
		panic(err)
	}
	return s
}

// TopByDegree returns the n members of the named set with the highest
// weighted out-degree — the paper's "100 authors with the highest number of
// publications" selection (§VII-B), since a DBLP author's edge weights count
// co-authored papers.
func (d *Dataset) TopByDegree(name string, n int) (*graph.NodeSet, error) {
	s, err := d.Set(name)
	if err != nil {
		return nil, err
	}
	type nw struct {
		id graph.NodeID
		w  float64
	}
	members := make([]nw, 0, s.Len())
	for _, id := range s.Nodes() {
		_, w, _ := d.Graph.OutEdges(id)
		var sum float64
		for _, x := range w {
			sum += x
		}
		members = append(members, nw{id, sum})
	}
	// Selection by partial sort: n is small.
	for i := 0; i < n && i < len(members); i++ {
		best := i
		for j := i + 1; j < len(members); j++ {
			if members[j].w > members[best].w ||
				(members[j].w == members[best].w && members[j].id < members[best].id) {
				best = j
			}
		}
		members[i], members[best] = members[best], members[i]
	}
	if n > len(members) {
		n = len(members)
	}
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = members[i].id
	}
	return graph.NewNodeSet(s.Name, ids), nil
}
