package pqueue

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// TestNonFinitePrioritiesPanic: NaN defeats every float comparison both heaps
// order by, so a NaN priority would sit mis-positioned and silently corrupt
// the incremental join's F structure; the queues must reject it (and ±Inf) at
// the boundary instead.
func TestNonFinitePrioritiesPanic(t *testing.T) {
	bad := []struct {
		name string
		v    float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	for _, b := range bad {
		mustPanic("TopK.Add "+b.name, func() {
			tk := NewTopK[int](2)
			tk.Add(1, b.v)
		})
		mustPanic("TopK.AddTie "+b.name, func() {
			tk := NewTopK[int](2)
			tk.AddTie(1, b.v, 0)
		})
		mustPanic("SlotHeap.Set insert "+b.name, func() {
			NewSlotHeap(nil).Set(0, b.v)
		})
		mustPanic("SlotHeap.Set update "+b.name, func() {
			h := NewSlotHeap(nil)
			h.Set(0, 1)
			h.Set(0, b.v)
		})
		mustPanic("SlotHeap.Build "+b.name, func() {
			NewSlotHeap(nil).Build([]float64{1, b.v}, nil)
		})
	}
	// Finite values, including zero and negatives, stay accepted.
	tk := NewTopK[int](2)
	tk.Add(1, -1e300)
	tk.Add(2, 0)
	h := NewSlotHeap(nil)
	h.Set(0, -1e300)
	h.Set(0, 0)
	// A non-finite priority in a slot Build leaves out is never ordered.
	NewSlotHeap(nil).Build([]float64{1, math.NaN()}, func(s int32) bool { return s == 0 })
	if h.Len() != 1 || tk.Len() != 2 {
		t.Fatal("finite priorities were rejected")
	}
}

func TestTopKBasic(t *testing.T) {
	tk := NewTopK[string](3)
	tk.Add("a", 1)
	tk.Add("b", 5)
	tk.Add("c", 3)
	tk.Add("d", 4) // evicts a
	tk.Add("e", 0) // rejected
	items, scores := tk.Sorted()
	if len(items) != 3 || items[0] != "b" || items[1] != "d" || items[2] != "c" {
		t.Fatalf("Sorted = %v %v", items, scores)
	}
	if scores[0] != 5 || scores[2] != 3 {
		t.Fatalf("scores = %v", scores)
	}
}

func TestTopKMinScore(t *testing.T) {
	tk := NewTopK[int](2)
	if _, full := tk.MinScore(); full {
		t.Fatal("empty reports full")
	}
	tk.Add(1, 10)
	if _, full := tk.MinScore(); full {
		t.Fatal("half-full reports full")
	}
	tk.Add(2, 20)
	if min, full := tk.MinScore(); !full || min != 10 {
		t.Fatalf("MinScore = %v,%v", min, full)
	}
}

func TestTopKTieKeepsEarlier(t *testing.T) {
	tk := NewTopK[string](1)
	tk.Add("first", 7)
	if tk.Add("second", 7) {
		t.Fatal("equal score displaced earlier item")
	}
	items, _ := tk.Sorted()
	if items[0] != "first" {
		t.Fatalf("got %v", items)
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 accepted")
		}
	}()
	NewTopK[int](0)
}

// Property: TopK(k) over any input equals sort-descending-take-k by scores.
func TestTopKMatchesSortProperty(t *testing.T) {
	f := func(seed int64, rawK uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(rawK)%10
		n := 30
		scores := make([]float64, n)
		tk := NewTopK[int](k)
		for i := 0; i < n; i++ {
			scores[i] = rng.NormFloat64()
			tk.Add(i, scores[i])
		}
		want := append([]float64(nil), scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if k > n {
			k = n
		}
		_, got := tk.Sorted()
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKPrefixProperty checks the invariant PJ's re-join stream depends
// on: with distinct tie keys, the top-m selection is always a prefix of the
// top-(m+1) selection over the same input — even with heavy score ties.
func TestTopKPrefixProperty(t *testing.T) {
	f := func(seed int64, rawM uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		type item struct {
			score float64
			tie   int64
		}
		items := make([]item, n)
		for i := range items {
			// Coarse scores force ties; distinct tie keys break them.
			items[i] = item{score: float64(rng.Intn(5)), tie: int64(i)}
		}
		m := 1 + int(rawM)%(n-1)
		run := func(k int) []int64 {
			tk := NewTopK[int64](k)
			for _, it := range items {
				tk.AddTie(it.tie, it.score, it.tie)
			}
			ids, _ := tk.Sorted()
			return ids
		}
		small, big := run(m), run(m+1)
		for i := range small {
			if small[i] != big[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddTieDisplacesHigherTie(t *testing.T) {
	tk := NewTopK[string](1)
	tk.AddTie("late-key", 5, 10)
	if !tk.AddTie("early-key", 5, 2) {
		t.Fatal("lower tie key failed to displace equal score")
	}
	items, _ := tk.Sorted()
	if items[0] != "early-key" {
		t.Fatalf("got %v", items)
	}
	// But a higher tie key must not displace.
	if tk.AddTie("later-key", 5, 7) {
		t.Fatal("higher tie key displaced")
	}
}

// The TestIndexed* suites pin SlotHeap, the indexed priority queue in the
// textbook sense: entries are addressed by dense integer slot.
func TestIndexedBasic(t *testing.T) {
	h := NewSlotHeap(nil)
	h.Set(0, 3)
	h.Set(1, 5)
	h.Set(2, 1)
	if h.Len() != 3 {
		t.Fatalf("Len = %d", h.Len())
	}
	if s, p, ok := h.Max(); !ok || s != 1 || p != 5 {
		t.Fatalf("Max = %v %v %v", s, p, ok)
	}
	if s, ok := h.SecondMax(); !ok || s != 3 {
		t.Fatalf("SecondMax = %v %v", s, ok)
	}
	// A slot past the table extends it; the slots skipped over stay absent.
	h.Set(7, 4)
	if h.Len() != 4 || h.Remove(5) {
		t.Fatalf("Len = %d after a sparse Set, or an unset slot was held", h.Len())
	}
	if s, ok := h.SecondMax(); !ok || s != 4 {
		t.Fatalf("SecondMax = %v %v", s, ok)
	}
}

func TestIndexedUpdate(t *testing.T) {
	h := NewSlotHeap(nil)
	h.Set(0, 1)
	h.Set(1, 2)
	h.Set(0, 10) // raise 0 above 1
	if s, p, _ := h.Max(); s != 0 || p != 10 {
		t.Fatalf("Max after raise = %v %v", s, p)
	}
	h.Set(0, 0) // lower below 1
	if s, _, _ := h.Max(); s != 1 {
		t.Fatalf("Max after lower = %v", s)
	}
	if h.Len() != 2 {
		t.Fatalf("Len changed on update: %d", h.Len())
	}
}

func TestIndexedRemove(t *testing.T) {
	h := NewSlotHeap(nil)
	for i := int32(0); i < 10; i++ {
		h.Set(i, float64(i))
	}
	if !h.Remove(9) || h.Remove(9) || h.Remove(99) {
		t.Fatal("Remove semantics wrong")
	}
	if s, _, _ := h.Max(); s != 8 {
		t.Fatalf("Max after remove = %v", s)
	}
	if h.Len() != 9 {
		t.Fatalf("Len = %d", h.Len())
	}
	h.Set(9, 20) // a removed slot can come back
	if s, _, _ := h.Max(); s != 9 || h.Len() != 10 {
		t.Fatalf("Max after re-insert = %v, Len %d", s, h.Len())
	}
}

// drain pops h empty, returning the slots in pop order.
func drain(h *SlotHeap) []int32 {
	var out []int32
	for {
		s, _, ok := h.Max()
		if !ok {
			return out
		}
		h.Remove(s)
		out = append(out, s)
	}
}

// TestIndexedPopMaxDrains: draining pops priorities in descending order,
// whether the heap was filled by Set or built by one heapify — and with a tie
// function, equal priorities leave in ascending key order on both paths, which
// is the canonical tie order the incremental join's F relies on. Leading
// visits that order without popping.
func TestIndexedPopMaxDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = float64(rng.Intn(6)) // plenty of equal priorities
	}
	tie := func(s int32) int64 { return int64(49 - s) } // later slots first
	live := func(s int32) bool { return s%7 != 3 }
	var want []int32
	for s := range vals {
		if live(int32(s)) {
			want = append(want, int32(s))
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if vals[a] != vals[b] {
			return vals[a] > vals[b]
		}
		return tie(a) < tie(b)
	})
	set := NewSlotHeap(tie)
	for s, v := range vals {
		if live(int32(s)) {
			set.Set(int32(s), v)
		}
	}
	built := NewSlotHeap(tie)
	built.Build(append([]float64(nil), vals...), live)
	for name, h := range map[string]*SlotHeap{"Set": set, "Build": built} {
		if h.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", name, h.Len(), len(want))
		}
		// Leading visits the same order without popping: any bound, and an
		// early stop from fn.
		for _, n := range []int{0, 1, 7, 32, len(want) + 5} {
			var lead []int32
			h.Leading(n, func(s int32) bool { lead = append(lead, s); return true })
			if !slices.Equal(lead, want[:min(n, len(want))]) {
				t.Fatalf("%s: Leading(%d) = %v, want %v", name, n, lead, want[:min(n, len(want))])
			}
		}
		stopped := 0
		h.Leading(len(want), func(int32) bool { stopped++; return stopped < 3 })
		if stopped != 3 {
			t.Fatalf("%s: Leading visited %d slots after fn returned false at the 3rd", name, stopped)
		}
		got := drain(h)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pop %d = slot %d (prio %v), want slot %d (prio %v)", name, i, got[i], vals[got[i]], want[i], vals[want[i]])
			}
		}
		if _, _, ok := h.Max(); ok {
			t.Fatalf("%s: Max on empty succeeded", name)
		}
		if _, ok := h.SecondMax(); ok {
			t.Fatalf("%s: SecondMax on empty succeeded", name)
		}
	}
}

// Property: Max and SecondMax equal the two largest priorities under random
// inserts, updates, and removes — on a heap that started from a Build.
func TestIndexedSecondMaxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewSlotHeap(nil)
		ref := make(map[int32]float64)
		init := make([]float64, 10)
		for s := range init {
			init[s] = rng.Float64()
			ref[int32(s)] = init[s]
		}
		h.Build(init, nil)
		for op := 0; op < 200; op++ {
			slot := int32(rng.Intn(20))
			switch rng.Intn(3) {
			case 0, 1:
				p := rng.Float64()
				h.Set(slot, p)
				ref[slot] = p
			case 2:
				_, held := ref[slot]
				if h.Remove(slot) != held {
					return false
				}
				delete(ref, slot)
			}
			// Check invariants.
			if h.Len() != len(ref) {
				return false
			}
			if len(ref) == 0 {
				continue
			}
			var ps []float64
			for _, p := range ref {
				ps = append(ps, p)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(ps)))
			if s, p, _ := h.Max(); p != ps[0] || ref[s] != p {
				return false
			}
			if len(ps) >= 2 {
				if s, ok := h.SecondMax(); !ok || s != ps[1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
