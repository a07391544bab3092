package dht

import (
	"testing"

	"repro/internal/graph"
)

// benchKernel is the §VI-A primitive on a lone engine — one full-depth
// backward walk scoring every source against one target — under the
// adaptive sparse/dense switch or the dense reference; the custom metrics
// show how the work split between the two step forms.
func benchKernel(b *testing.B, force bool) {
	g := benchGraph(b)
	e := mustEngine(b, g, DHTLambda(0.2), 8)
	e.ForceDense = force
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BackWalkScoresBatch(FirstHit, []graph.NodeID{graph.NodeID(i % g.NumNodes())}, 8)
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
// deepening round on a lone engine — the regime the sparse frontier and the
// β-prefilled column exist for: only the target's in-neighbours are touched
// and restored, no O(|V|) pass.
func BenchmarkBackWalkShort(b *testing.B) {
	g := benchGraph(b)
	e := mustEngine(b, g, DHTLambda(0.2), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BackWalkScoresBatch(FirstHit, []graph.NodeID{graph.NodeID(i % g.NumNodes())}, 1)
	}
}

// benchBatchBackWalk measures the batched kernel at the given width against
// BenchmarkBackWalkForceDenseKernel / BenchmarkBackWalkAdaptiveKernel: one
// op is ONE walk (b.N walks are issued in width-sized batches), so ns/op is
// directly comparable to a lone engine's.
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
