package pqueue

import (
	"math/rand"
	"testing"
)

// TestLRUEvictionOrder pins the one policy every bounded cache in the repo
// (score memo, result and plan caches, SimRank matrices) relies on: Get and
// Put refresh recency, Peek does not, and a new key evicts exactly the least
// recently used entry. The second half checks the linked implementation
// against the most-recently-used-last key list the caches used to carry.
func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU[string, int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if v, ok := c.Get("a"); !ok || v != 1 { // a becomes MRU; b is now LRU
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if v, ok := c.Peek("b"); !ok || v != 2 { // must not rescue b
		t.Fatalf("Peek(b) = %d, %v", v, ok)
	}
	c.Put("d", 4)
	if _, ok := c.Peek("b"); ok {
		t.Fatal("b should have been evicted")
	}
	c.Put("c", 30) // replace refreshes recency: a is now LRU
	c.Put("e", 5)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, _ := c.Peek("c"); v != 30 || c.Len() != 3 {
		t.Fatalf("c = %d, Len = %d; want 30, 3", v, c.Len())
	}

	empty := NewLRU[int, int](0)
	empty.Put(1, 1)
	if _, ok := empty.Get(1); ok || empty.Len() != 0 {
		t.Fatal("a capacity-0 LRU must hold nothing")
	}

	rng := rand.New(rand.NewSource(7))
	const capacity = 5
	lru := NewLRU[int, int](capacity)
	var order []int // reference: most recently used last
	touch := func(k int) bool {
		for i, o := range order {
			if o == k {
				order = append(append(order[:i:i], order[i+1:]...), k)
				return true
			}
		}
		return false
	}
	for step := 0; step < 2000; step++ {
		k := rng.Intn(12)
		switch rng.Intn(3) {
		case 0:
			_, got := lru.Get(k)
			if want := touch(k); got != want {
				t.Fatalf("step %d Get(%d): present=%v, want %v", step, k, got, want)
			}
		case 1:
			_, got := lru.Peek(k)
			want := false
			for _, o := range order {
				want = want || o == k
			}
			if got != want {
				t.Fatalf("step %d Peek(%d): present=%v, want %v", step, k, got, want)
			}
		default:
			lru.Put(k, step)
			if !touch(k) {
				if len(order) == capacity {
					order = order[1:]
				}
				order = append(order, k)
			}
		}
		if lru.Len() != len(order) {
			t.Fatalf("step %d: Len = %d, want %d", step, lru.Len(), len(order))
		}
	}
}
