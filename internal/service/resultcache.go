package service

import (
	"sync"

	"repro/internal/pqueue"
)

// prefix is one cached ranking prefix: the longest contiguous run of
// top-ranked results a request (batch or streamed) has drained for one
// query signature. Because a streamed prefix of length m is bit-identical
// to the one-shot top-m (the streaming API's core invariant), any request
// for k ≤ len results — whatever its k — is served from the prefix; longer
// requests re-run and replace it with their longer prefix. exhausted marks
// a prefix that is the complete ranking, so even k > len is served.
//
// Values are stored as immutable snapshots (the service deep-copies on put
// and on get where aliasing could leak), so concurrent hits are race-free.
type prefix struct {
	results   any // []join2.Result or []core.Answer, original id space
	n         int // number of results in the prefix
	exhausted bool
}

// resultLRU is a mutex-protected LRU of ranking prefixes keyed by the
// request signature (which deliberately excludes k).
type resultLRU struct {
	mu      sync.Mutex
	entries *pqueue.LRU[string, prefix]
}

// newResultLRU returns a cache of the given capacity; capacity < 0 disables
// caching (every get misses, every put is dropped).
func newResultLRU(capacity int) *resultLRU {
	if capacity < 0 {
		return nil
	}
	return &resultLRU{entries: pqueue.NewLRU[string, prefix](capacity)}
}

// get returns the cached prefix when it can serve k results: it holds at
// least k, or it is the exhausted complete ranking.
func (c *resultLRU) get(key string, k int) (prefix, bool) {
	if c == nil {
		return prefix{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.entries.Peek(key); !ok || (v.n < k && !v.exhausted) {
		return prefix{}, false
	}
	return c.entries.Get(key)
}

// getFull returns the cached prefix only when it is the complete ranking
// (exhausted), which is the one case a stream of unknown demand can be
// served entirely from cache.
func (c *resultLRU) getFull(key string) (prefix, bool) {
	if c == nil {
		return prefix{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.entries.Peek(key); !ok || !v.exhausted {
		return prefix{}, false
	}
	return c.entries.Get(key)
}

// put offers a drained prefix. It only ever extends knowledge: a stored
// prefix is replaced when the offer is longer, or marks the ranking
// exhausted where the stored one did not.
func (c *resultLRU) put(key string, v prefix) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries.Get(key); ok && !(v.n > old.n || (v.exhausted && !old.exhausted)) {
		return
	}
	c.entries.Put(key, v)
}
