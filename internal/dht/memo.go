package dht

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pqueue"
)

// DefaultMemoSize is the number of score columns a ScoreMemo retains when
// the owner does not choose a capacity. Deliberately small: the default memo
// exists to catch the tight repeat pattern of a re-join stream over B-BJ
// (TopK(m+1), TopK(m+2), … re-walk the same targets at full depth), not to
// cache whole result sets — each entry costs O(|V|) floats. Long-lived owners (the serving layer) pick a larger
// capacity explicitly.
const DefaultMemoSize = 8

// memoShardThreshold is the capacity above which a memo splits into multiple
// lock shards. Below it, one shard keeps exact global LRU order (the
// behavior the single-request joiners rely on for their tiny memos); above
// it, contention on the single mutex would serialize every concurrent
// request through one cache line, so the key space is striped across
// independently locked shards, each an exact LRU over its stripe.
const memoShardThreshold = 32

// memoShards is the shard count of a sharded memo. A power of two so the
// shard pick is a mask, sized to comfortably exceed the worker counts the
// serving layer admits per machine.
const memoShards = 8

// memoKey identifies one cached backward-walk column.
type memoKey struct {
	kind  Kind
	q     graph.NodeID
	steps int
}

// shard indexes the key into a shard mask. The target node dominates the
// hash (kind and steps take two values nearly always), multiplied by a
// Fibonacci constant so consecutive node ids spread across shards.
func (k memoKey) shard(mask uint32) uint32 {
	h := uint32(k.q)*2654435761 + uint32(k.steps)*0x9e3779b9 + uint32(k.kind)
	return (h >> 16) & mask
}

// memoShard is one independently locked LRU stripe.
type memoShard struct {
	mu   sync.Mutex
	cols *pqueue.LRU[memoKey, []float64]
}

// ScoreMemo is an LRU cache of backward-walk score columns keyed by
// (kind, target, walk length). It is bound to one (graph, params, d)
// configuration by its owner — the memo itself never validates that.
//
// The memo is safe for concurrent use by construction: the key space is
// striped over mutex-protected LRU shards, and a column, once published, is
// immutable — Put copies the caller's scores into fresh storage before
// publishing, never overwrites a published column in place, and eviction
// merely drops the cache's reference. A slice returned by Get therefore
// stays valid (and race-free to read) for as long as the caller holds it,
// even across evictions and concurrent Puts. The price is one O(|V|)
// allocation per distinct inserted key instead of the old
// recycle-the-evicted-column trick; insert cost was already dominated by the
// O(|V|) copy.
type ScoreMemo struct {
	shards []memoShard
	mask   uint32
	cap    int

	hits, misses atomic.Int64
}

// NewScoreMemo returns a memo retaining up to capacity columns
// (capacity <= 0 selects DefaultMemoSize). Small capacities use one shard
// (exact global LRU); capacities above memoShardThreshold are striped over
// memoShards independently locked shards.
func NewScoreMemo(capacity int) *ScoreMemo {
	if capacity <= 0 {
		capacity = DefaultMemoSize
	}
	n := 1
	if capacity > memoShardThreshold {
		n = memoShards
	}
	m := &ScoreMemo{
		shards: make([]memoShard, n),
		mask:   uint32(n - 1),
		cap:    capacity,
	}
	per := (capacity + n - 1) / n
	for i := range m.shards {
		m.shards[i].cols = pqueue.NewLRU[memoKey, []float64](per)
	}
	return m
}

// Get returns the cached column for (kind, q, steps) and marks it most
// recently used. The returned slice is immutable: callers must not write to
// it, and may read it indefinitely — it stays valid even after eviction.
func (m *ScoreMemo) Get(kind Kind, q graph.NodeID, steps int) ([]float64, bool) {
	if m == nil {
		return nil, false
	}
	k := memoKey{kind, q, steps}
	s := &m.shards[k.shard(m.mask)]
	s.mu.Lock()
	col, ok := s.cols.Get(k)
	s.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return col, ok
}

// Put publishes a copy of scores under (kind, q, steps), evicting the least
// recently used entry of the key's shard when full. If the key is already
// present the existing column is kept (columns are deterministic for the
// configuration the memo is bound to, so the stored values are already
// correct) and only its recency is refreshed — published columns are never
// written again.
func (m *ScoreMemo) Put(kind Kind, q graph.NodeID, steps int, scores []float64) {
	if m == nil {
		return
	}
	k := memoKey{kind, q, steps}
	s := &m.shards[k.shard(m.mask)]
	// Copy outside the lock: the column must be complete before it is
	// published, and the O(|V|) copy should not extend the critical section.
	col := make([]float64, len(scores))
	copy(col, scores)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cols.Get(k); ok {
		return
	}
	s.cols.Put(k, col)
}

// Len reports the number of cached columns.
func (m *ScoreMemo) Len() int {
	if m == nil {
		return 0
	}
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.cols.Len()
		s.mu.Unlock()
	}
	return n
}

// Cap reports the memo's total capacity (0 for a nil memo). Callers whose
// working set of targets exceeds the capacity should bypass the memo
// entirely: a sequential scan over more targets than the LRU holds evicts
// every entry before its re-use, paying the O(|V|) insert copies for zero
// hits.
func (m *ScoreMemo) Cap() int {
	if m == nil {
		return 0
	}
	return m.cap
}

// Hits and Misses report the memo's lifetime lookup outcomes (atomic reads,
// safe concurrently); the serving layer surfaces them in /stats.
func (m *ScoreMemo) Hits() int64 {
	if m == nil {
		return 0
	}
	return m.hits.Load()
}

// Misses reports lifetime Get misses; see Hits.
func (m *ScoreMemo) Misses() int64 {
	if m == nil {
		return 0
	}
	return m.misses.Load()
}
