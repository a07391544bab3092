package service

import (
	"sync"

	"repro/internal/plan"
	"repro/internal/pqueue"
)

// planCacheCap bounds each session's plan cache. Plans are tiny (a handful
// of estimate rows), so the cap exists to bound key-string retention, not
// memory pressure; it is sized like a working set of distinct (query, k)
// shapes a client realistically cycles through.
const planCacheCap = 64

// planCache memoizes planner decisions per session, keyed like the result
// LRU (the request signature, plus the demand k the plan was sized for).
// Entries are stamped with the session calibration's generation: a lookup
// whose generation has moved on misses, so recalibrated sessions re-plan
// with the fresh cost unit while the steady state serves cached decisions.
// Safe for concurrent use.
type planCache struct {
	mu      sync.Mutex
	entries *pqueue.LRU[string, planEntry]
}

type planEntry struct {
	pl  *plan.Plan
	gen uint64
}

func newPlanCache(capacity int) *planCache {
	return &planCache{entries: pqueue.NewLRU[string, planEntry](capacity)}
}

// get returns the cached plan for key if it was computed under the same
// calibration generation.
func (c *planCache) get(key string, gen uint64) (*plan.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.Peek(key); !ok || e.gen != gen {
		return nil, false
	}
	e, _ := c.entries.Get(key)
	return e.pl, true
}

// put publishes a plan under key at the given generation, evicting the
// least recently used entry when full.
func (c *planCache) put(key string, gen uint64, pl *plan.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.Put(key, planEntry{pl: pl, gen: gen})
}
