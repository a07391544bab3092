package pqueue

// LRU is a bounded keyed map with least-recently-used eviction: the recency
// bookkeeping under the service's result cache. What a value means (prefix
// extension, generation stamps) is the owner's business — owners Peek,
// decide, and then Get or Put. An LRU is not synchronized; owners guard it
// with their own mutex.
type LRU[K comparable, V any] struct {
	cap     int
	entries map[K]*lruNode[K, V]
	// head is a sentinel: head.next is the least recently used entry,
	// head.prev the most recently used one.
	head lruNode[K, V]
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

// NewLRU returns an LRU holding at most capacity entries. A capacity below
// 1 holds nothing: every Put is dropped.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	c := &LRU[K, V]{cap: capacity, entries: make(map[K]*lruNode[K, V], max(capacity, 0))}
	c.head.prev, c.head.next = &c.head, &c.head
	return c
}

// Len reports the number of entries held.
func (c *LRU[K, V]) Len() int { return len(c.entries) }

// Peek returns the value under key without changing its recency.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	if n, ok := c.entries[key]; ok {
		return n.val, true
	}
	var zero V
	return zero, false
}

// Get returns the value under key and marks it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	n, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(n)
	c.pushMRU(n)
	return n.val, true
}

// Put stores val under key and marks it most recently used, replacing any
// value already there; a new key evicts the least recently used entry when
// the LRU is full.
func (c *LRU[K, V]) Put(key K, val V) {
	if n, ok := c.entries[key]; ok {
		n.val = val
		c.unlink(n)
		c.pushMRU(n)
		return
	}
	if c.cap < 1 {
		return
	}
	var n *lruNode[K, V]
	if len(c.entries) >= c.cap {
		n = c.head.next // recycle the evicted node
		c.unlink(n)
		delete(c.entries, n.key)
	} else {
		n = new(lruNode[K, V])
	}
	n.key, n.val = key, val
	c.entries[key] = n
	c.pushMRU(n)
}

func (c *LRU[K, V]) unlink(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *LRU[K, V]) pushMRU(n *lruNode[K, V]) {
	n.prev, n.next = c.head.prev, &c.head
	n.prev.next, c.head.prev = n, n
}
