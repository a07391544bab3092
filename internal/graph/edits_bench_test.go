package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// BenchmarkApplyEdits is one edge update as the benchmark module's writes
// send it (benchmark/workloads.go, randomEdits: four adds of weight 1
// between random distinct nodes, four deletes of existing arcs), applied to
// the yeast graph of mixed_rw and joinN_stream and to the youtube graph of
// join2_cold. Each iteration edits the same base graph.
func BenchmarkApplyEdits(b *testing.B) {
	yeast, err := dataset.Yeast(1)
	if err != nil {
		b.Fatal(err)
	}
	youtube, err := dataset.YouTube(dataset.YouTubeConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"yeast", yeast.Graph}, {"youtube", youtube.Graph}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			type edit struct {
				adds []graph.Edge
				dels [][2]graph.NodeID
			}
			edits := make([]edit, 64)
			for i := range edits {
				edits[i].adds, edits[i].dels = randomEdits(rng, c.g)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edits[i%len(edits)]
				if _, err := graph.ApplyEdits(c.g, e.adds, e.dels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randomEdits is benchmark/workloads.go's edit batch.
func randomEdits(rng *rand.Rand, g *graph.Graph) ([]graph.Edge, [][2]graph.NodeID) {
	const batch = 4
	n := g.NumNodes()
	adds := make([]graph.Edge, batch)
	for i := range adds {
		u := rng.Intn(n)
		v := (u + 1 + rng.Intn(n-1)) % n
		adds[i] = graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: 1}
	}
	dels := make([][2]graph.NodeID, 0, batch)
	for len(dels) < batch {
		u := graph.NodeID(rng.Intn(n))
		if to, _, _ := g.OutEdges(u); len(to) > 0 {
			dels = append(dels, [2]graph.NodeID{u, to[rng.Intn(len(to))]})
		}
	}
	return adds, dels
}
