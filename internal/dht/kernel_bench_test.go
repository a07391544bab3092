package dht

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// benchKernel compares the adaptive sparse/dense kernel against the forced
// dense reference on full-depth walks; the reported custom metrics show how
// the work split between the two paths.
func benchKernel(b *testing.B, force bool) {
	g := benchGraph(b)
	e, err := NewEngine(g, DHTLambda(0.2), 8)
	if err != nil {
		b.Fatal(err)
	}
	e.ForceDense = force
	out := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BackWalk(graph.NodeID(i%g.NumNodes()), 8, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(e.EdgeSweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(e.FrontierEdges)/float64(b.N), "frontieredges/op")
}

// BenchmarkBackWalkAdaptiveKernel: full-depth backward walk, adaptive kernel.
func BenchmarkBackWalkAdaptiveKernel(b *testing.B) { benchKernel(b, false) }

// BenchmarkBackWalkForceDenseKernel: the same walk on the dense reference.
func BenchmarkBackWalkForceDenseKernel(b *testing.B) { benchKernel(b, true) }

// BenchmarkBackWalkShort measures the l=1 walk that dominates B-IDJ's first
// deepening round — the regime the sparse frontier exists for: only the
// target's in-neighbors are touched instead of O(|V|) scans per step.
func BenchmarkBackWalkShort(b *testing.B) {
	g := benchGraph(b)
	e, err := NewEngine(g, DHTLambda(0.2), 8)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BackWalk(graph.NodeID(i%g.NumNodes()), 1, out)
	}
}

// BenchmarkBackWalkScoresShort is BenchmarkBackWalkShort through the
// β-prefilled engine-owned column: no O(|V|) clear of the caller buffer and
// no O(|V|) affine pass, only the touched entries.
func BenchmarkBackWalkScoresShort(b *testing.B) {
	g := benchGraph(b)
	e, err := NewEngine(g, DHTLambda(0.2), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BackWalkScores(FirstHit, graph.NodeID(i%g.NumNodes()), 1)
	}
}

// benchBatchBackWalk measures the batched kernel at the given width against
// BenchmarkBackWalkForceDenseKernel / BenchmarkBackWalkAdaptiveKernel: one
// op is ONE walk (b.N walks are issued in width-sized batches), so ns/op is
// directly comparable to the solo kernels.
func benchBatchBackWalk(b *testing.B, w, steps int) {
	g := benchGraph(b)
	be, err := NewBatchEngine(g, DHTLambda(0.2), 8, w)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]graph.NodeID, w)
	b.ResetTimer()
	for i := 0; i < b.N; i += w {
		aw := w
		if i+aw > b.N {
			aw = b.N - i
		}
		for c := 0; c < aw; c++ {
			qs[c] = graph.NodeID((i + c) % g.NumNodes())
		}
		be.BackWalkScoresBatch(FirstHit, qs[:aw], steps)
	}
	b.StopTimer()
	b.ReportMetric(float64(be.EdgeSweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(be.FrontierEdges)/float64(b.N), "frontieredges/op")
}

// BenchmarkBatchBackWalkW8: full-depth backward walks, 8 columns per scan.
func BenchmarkBatchBackWalkW8(b *testing.B) { benchBatchBackWalk(b, 8, 8) }

// BenchmarkBatchBackWalkW16: the same at width 16.
func BenchmarkBatchBackWalkW16(b *testing.B) { benchBatchBackWalk(b, 16, 8) }

// BenchmarkBatchBackWalkShortW8: the l=1 deepening-round regime, batched.
func BenchmarkBatchBackWalkShortW8(b *testing.B) { benchBatchBackWalk(b, 8, 1) }

// BenchmarkSoloVsBatchW1 is the measurement behind keeping the solo push
// kernel next to the batch engine (DESIGN.md, kernel section): one target
// per op on a 25k-node preferential-attachment graph, walked l steps by
// the solo engine, by a width-1 batch engine, and by a width-8 batch engine
// with a single active column. If width 1 matched solo, Engine could be a
// W=1 view of BatchEngine; it does not.
func BenchmarkSoloVsBatchW1(b *testing.B) {
	g, err := graph.GeneratePreferential(25000, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumNodes()
	for _, l := range []int{1, 2, 3, 5, 8} {
		b.Run(fmt.Sprintf("l=%d/solo", l), func(b *testing.B) {
			e, err := NewEngine(g, DHTLambda(0.2), 8)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.BackWalkScores(FirstHit, graph.NodeID(i%n), l)
			}
		})
		for _, w := range []int{1, 8} {
			b.Run(fmt.Sprintf("l=%d/batchW%d", l, w), func(b *testing.B) {
				be, err := NewBatchEngine(g, DHTLambda(0.2), 8, w)
				if err != nil {
					b.Fatal(err)
				}
				q := make([]graph.NodeID, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q[0] = graph.NodeID(i % n)
					be.BackWalkScoresBatch(FirstHit, q, l)
				}
			})
		}
	}
}
