package main

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// graphData is a workload's graph with its named node sets.
type graphData struct {
	Graph  *graph.Graph
	Sets   []*graph.NodeSet
	byName map[string]*graph.NodeSet
}

func newGraphData(g *graph.Graph, sets []*graph.NodeSet) *graphData {
	d := &graphData{Graph: g, Sets: sets, byName: make(map[string]*graph.NodeSet, len(sets))}
	for _, s := range sets {
		d.byName[s.Name] = s
	}
	return d
}

func (d *graphData) Set(name string) (*graph.NodeSet, error) {
	if s, ok := d.byName[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("no node set %q", name)
}

// loadDataset builds the workload's graph. It does not depend on -seed: two
// generated graphs of one size differ in walk cost by more than the bounds,
// so a per-seed graph would make every seed its own benchmark.
func loadDataset(name string) (*graphData, error) {
	if name == "youtube" {
		return youtube(int(50000*youtubeScale), 100, graphSeed), nil
	}
	d, err := dataset.Yeast(graphSeed)
	if err != nil {
		return nil, err
	}
	return newGraphData(d.Graph, d.Sets), nil
}

// youtube builds the friendship graph dataset.YouTube describes — preferential
// attachment with three links per arrival, triadic closure for a fifth more
// edges, interest groups of 40 to 159 users grown by a randomized BFS — but
// reproducibly. dataset.YouTube cannot be used: graph.GeneratePreferential
// appends each arrival's links in Go map iteration order, so the same seed
// gives a different graph in every process, and the benchmark must give the
// same inputs for the same seed.
func youtube(n, groups int, seed int64) *graphData {
	const m = 3
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, false)
	targets := make([]graph.NodeID, 0, 2*n*m) // every arc endpoint: sampling it is degree-proportional
	link := func(u, v graph.NodeID) {
		b.AddEdge(u, v, 1)
		targets = append(targets, u, v)
	}
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			link(graph.NodeID(i), graph.NodeID(j))
		}
	}
	var chosen []graph.NodeID
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			if v := targets[rng.Intn(len(targets))]; int(v) != u && !slices.Contains(chosen, v) {
				chosen = append(chosen, v)
			}
		}
		for _, v := range chosen {
			link(graph.NodeID(u), v)
		}
	}
	g := b.Build()
	g = graph.CloseTriads(g, g.NumEdges()/5, seed+13)
	rng = rand.New(rand.NewSource(seed + 7))
	sets := make([]*graph.NodeSet, groups)
	for i := range sets {
		sets[i] = graph.NewNodeSet(fmt.Sprint(i+1), growGroup(g, rng, 40+rng.Intn(120)))
	}
	return newGraphData(g, sets)
}

// growGroup collects size socially-near users: from a random start, a random
// frontier member's friends each join with probability 0.6; a frontier that
// dies out restarts from a random user.
func growGroup(g *graph.Graph, rng *rand.Rand, size int) []graph.NodeID {
	var members, frontier []graph.NodeID
	in := make(map[graph.NodeID]bool)
	join := func(v graph.NodeID) {
		in[v] = true
		members = append(members, v)
		frontier = append(frontier, v)
	}
	for len(members) < size {
		if len(frontier) == 0 {
			if v := graph.NodeID(rng.Intn(g.NumNodes())); !in[v] {
				join(v)
			}
			continue
		}
		i := rng.Intn(len(frontier))
		to, _, _ := g.OutEdges(frontier[i])
		grew := false
		for _, v := range to {
			if len(members) < size && !in[v] && rng.Float64() < 0.6 {
				join(v)
				grew = true
			}
		}
		if !grew {
			frontier = slices.Delete(frontier, i, i+1)
		}
	}
	return members
}
