// Package pqueue provides the priority-queue substrate used across the join
// algorithms: a bounded top-k collector (the paper's B and O buffers), a
// slot-addressed mutable max-heap (the order of the incremental join's F
// structure of §VI-D, which needs priority updates by slot and a peek at the
// two best entries), and a small LRU.
package pqueue

import (
	"fmt"
	"math"
	"sort"
)

// checkFinite rejects NaN and ±Inf scores at the queue boundary. Both heaps
// order entries with plain float comparisons, and every comparison against
// NaN is false — a NaN admitted into a heap sits wherever it landed, never
// sifts, and silently corrupts the order invariant (the incremental join's F
// structure would then serve wrong winners without any error). Infinities
// are rejected too: no DHT score or monotone aggregate of scores is ever
// infinite, so an Inf priority is a caller bug (e.g. a division by a zero
// degree) that should surface at the insertion site, not as a mis-ranked
// result. Panicking (rather than clamping) is deliberate — see
// graph.Builder.AddEdge, which treats invalid weights the same way.
func checkFinite(where string, prio float64) {
	if math.IsNaN(prio) || math.IsInf(prio, 0) {
		panic(fmt.Sprintf("pqueue: %s called with non-finite priority %v", where, prio))
	}
}

// TopK keeps the k items with the largest scores. Equal scores are broken by
// an optional caller-supplied tie key (lower wins), then by insertion order
// (earlier wins), so results are deterministic — and, crucially for the PJ
// re-join stream, a top-m selection is always a prefix of the top-(m+1)
// selection when callers pass canonical tie keys.
type TopK[T any] struct {
	k     int
	items []scored[T]
	seq   int
}

type scored[T any] struct {
	item  T
	score float64
	tie   int64
	seq   int
}

// beats reports whether a ranks strictly ahead of b.
func (a scored[T]) beats(b scored[T]) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.seq < b.seq
}

// NewTopK returns a collector for the k best items. k must be positive.
func NewTopK[T any](k int) *TopK[T] {
	if k <= 0 {
		panic("pqueue: TopK needs k > 0")
	}
	return &TopK[T]{k: k}
}

// Len returns the current number of retained items (≤ k).
func (t *TopK[T]) Len() int { return len(t.items) }

// Reset empties the collector in place, keeping its capacity, so hot loops
// (e.g. the B-IDJ deepening rounds) can reuse one collector per round
// instead of allocating a fresh heap.
func (t *TopK[T]) Reset() {
	t.items = t.items[:0]
	t.seq = 0
}

// Full reports whether k items are retained.
func (t *TopK[T]) Full() bool { return len(t.items) == t.k }

// MinScore returns the smallest retained score, or -Inf semantics via ok=false
// when fewer than k items are held (meaning any item would still be admitted).
func (t *TopK[T]) MinScore() (float64, bool) {
	if len(t.items) < t.k {
		return 0, false
	}
	return t.items[0].score, true
}

// Threshold returns the score an item must exceed to change the result set:
// the k-th best score once full, otherwise negative infinity is conceptually
// right but we signal "not full" with ok=false.
func (t *TopK[T]) Threshold() (float64, bool) { return t.MinScore() }

// Add offers an item; it is retained only if it beats the current k-th best
// (or the collector is not yet full). Reports whether the item was retained.
// Equal scores do not displace (earlier wins).
func (t *TopK[T]) Add(item T, score float64) bool {
	return t.AddTie(item, score, 0)
}

// AddTie is Add with an explicit tie key: among equal scores, lower tie keys
// rank ahead and may displace retained items with higher tie keys. Scores
// must be finite; NaN and ±Inf panic (see checkFinite).
func (t *TopK[T]) AddTie(item T, score float64, tie int64) bool {
	checkFinite("TopK.AddTie", score)
	s := scored[T]{item: item, score: score, tie: tie, seq: t.seq}
	if len(t.items) < t.k {
		t.seq++
		t.items = append(t.items, s)
		t.up(len(t.items) - 1)
		return true
	}
	if !s.beats(t.items[0]) {
		return false
	}
	t.seq++
	t.items[0] = s
	t.down(0)
	return true
}

// Sorted returns the retained items ordered by descending score (stable by
// insertion order for ties). The collector is unchanged.
func (t *TopK[T]) Sorted() ([]T, []float64) {
	tmp := make([]scored[T], len(t.items))
	copy(tmp, t.items)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].beats(tmp[j]) })
	items := make([]T, len(tmp))
	scores := make([]float64, len(tmp))
	for i, s := range tmp {
		items[i] = s.item
		scores[i] = s.score
	}
	return items, scores
}

// The heap is a min-heap under beats: the root is the worst retained item.
func (t *TopK[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.items[p].beats(t.items[i]) {
			return
		}
		t.items[p], t.items[i] = t.items[i], t.items[p]
		i = p
	}
}

func (t *TopK[T]) down(i int) {
	n := len(t.items)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.items[worst].beats(t.items[l]) {
			worst = l
		}
		if r < n && t.items[worst].beats(t.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}

// SlotHeap is a max-heap over dense integer slots: an entry is a slot number
// and its priority, and every per-slot fact — priority, heap position — lives
// in a flat slice indexed by slot, so an update or removal by slot costs array
// reads and an array-indexed sift, never a hash. It is the order half of the
// incremental join's F structure (§VI-D; slot = cell of the P×Q table) and
// the n-way driver's pending-candidate heap (slot = insertion count), both of
// which need priority updates or removal by slot plus a peek at the two best
// entries. Callers keep whatever else they know about a slot in their own
// slices beside it.
//
// Entries order by priority descending; among equal priorities the entry with
// the smaller tie key ranks first when the heap has a tie function, and
// otherwise the order is whatever the operation history left — a pure
// function of the operation sequence either way.
type SlotHeap struct {
	prio  []float64 // by slot
	pos   []int32   // by slot: position in heap, -1 when the slot is not held
	heap  []int32   // heap order → slot
	tie   func(slot int32) int64
	front []int32 // Leading's frontier of heap positions, reused across calls
}

// NewSlotHeap returns an empty heap. tie, when non-nil, is the total order
// among equal priorities (smaller key first); it is consulted only then.
func NewSlotHeap(tie func(slot int32) int64) *SlotHeap {
	return &SlotHeap{tie: tie}
}

// Build replaces the heap's contents with the slots 0..len(prio)-1 for which
// live reports true (all of them when live is nil), at the given priorities,
// in O(len(prio)): one heapify instead of one sift per entry. The heap adopts prio — the caller must not
// write it afterwards. Priorities of live slots must be finite.
func (h *SlotHeap) Build(prio []float64, live func(slot int32) bool) {
	h.prio = prio
	h.pos = make([]int32, len(prio))
	h.heap = make([]int32, 0, len(prio))
	for s := range prio {
		if live != nil && !live(int32(s)) {
			h.pos[s] = -1
			continue
		}
		checkFinite("SlotHeap.Build", prio[s])
		h.pos[s] = int32(len(h.heap))
		h.heap = append(h.heap, int32(s))
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Len returns the number of held slots.
func (h *SlotHeap) Len() int { return len(h.heap) }

// Set inserts slot with the given priority, or re-prioritises it when held.
// Slots past the current table extend it. Priorities must be finite; NaN and
// ±Inf panic (see checkFinite) — the update path compares prio against the
// stored priority to pick a sift direction, and both comparisons are false
// for NaN, which would leave the entry mis-positioned and the heap silently
// corrupted.
func (h *SlotHeap) Set(slot int32, prio float64) {
	checkFinite("SlotHeap.Set", prio)
	for int(slot) >= len(h.pos) {
		h.prio = append(h.prio, 0)
		h.pos = append(h.pos, -1)
	}
	i := int(h.pos[slot])
	old := h.prio[slot]
	h.prio[slot] = prio
	switch {
	case i < 0:
		h.pos[slot] = int32(len(h.heap))
		h.heap = append(h.heap, slot)
		h.up(len(h.heap) - 1)
	case prio > old:
		h.up(i)
	case prio < old:
		h.down(i)
	}
}

// Max returns the best slot and its priority without removing it.
func (h *SlotHeap) Max() (int32, float64, bool) {
	if len(h.heap) == 0 {
		return 0, 0, false
	}
	return h.heap[0], h.prio[h.heap[0]], true
}

// SecondMax returns the priority of the second-best entry. ok is false when
// fewer than two entries exist.
func (h *SlotHeap) SecondMax() (float64, bool) {
	switch len(h.heap) {
	case 0, 1:
		return 0, false
	case 2:
		return h.prio[h.heap[1]], true
	default:
		return max(h.prio[h.heap[1]], h.prio[h.heap[2]]), true
	}
}

// Leading hands fn the held slots in rank order, best first, until fn returns
// false or n slots have been handed out. It is a best-first descent from the
// root — every child ranks behind its parent — over a frontier of at most
// n+1 heap positions, so it examines O(n) entries however large the heap is.
// fn must not modify the heap.
func (h *SlotHeap) Leading(n int, fn func(slot int32) bool) {
	if len(h.heap) == 0 {
		return
	}
	front := append(h.front[:0], 0)
	for ; n > 0 && len(front) > 0; n-- {
		best := 0
		for i := 1; i < len(front); i++ {
			if h.beats(h.heap[front[i]], h.heap[front[best]]) {
				best = i
			}
		}
		at := front[best]
		front[best] = front[len(front)-1]
		front = front[:len(front)-1]
		if !fn(h.heap[at]) {
			break
		}
		for c := 2*at + 1; c <= 2*at+2 && int(c) < len(h.heap); c++ {
			front = append(front, c)
		}
	}
	h.front = front
}

// Remove deletes slot from the heap, reporting whether it was held.
func (h *SlotHeap) Remove(slot int32) bool {
	if int(slot) >= len(h.pos) || h.pos[slot] < 0 {
		return false
	}
	i, last := int(h.pos[slot]), len(h.heap)-1
	h.swap(i, last)
	h.heap = h.heap[:last]
	h.pos[slot] = -1
	if i < last {
		h.down(i)
		h.up(i)
	}
	return true
}

// beats reports whether slot a ranks strictly ahead of slot b.
func (h *SlotHeap) beats(a, b int32) bool {
	if pa, pb := h.prio[a], h.prio[b]; pa != pb {
		return pa > pb
	}
	return h.tie != nil && h.tie(a) < h.tie(b)
}

func (h *SlotHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *SlotHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.beats(h.heap[i], h.heap[p]) {
			return
		}
		h.swap(p, i)
		i = p
	}
}

func (h *SlotHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.beats(h.heap[l], h.heap[big]) {
			big = l
		}
		if r < n && h.beats(h.heap[r], h.heap[big]) {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}
