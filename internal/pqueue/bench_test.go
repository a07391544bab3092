package pqueue

import (
	"math/rand"
	"testing"
)

func BenchmarkTopKAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 4096)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	tk := NewTopK[int](50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(i, scores[i%len(scores)])
	}
}

func BenchmarkSlotHeapSetUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	h := NewSlotHeap(nil)
	for i := int32(0); i < 10000; i++ {
		h.Set(i, rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Set(int32(i%10000), rng.Float64())
	}
}

func BenchmarkSlotHeapMaxSecondMax(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	h := NewSlotHeap(nil)
	for i := int32(0); i < 10000; i++ {
		h.Set(i, rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Max()
		h.SecondMax()
	}
}
