package dhtjoin

import (
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/join2"
)

// Relabeling is the old↔new node-id bijection of a locality ordering; see
// Relabel.
type Relabeling = graph.Relabeling

// RelabelMode selects the locality-aware node ordering applied to the graph
// before a join (see graph.RelabelMode, which this aliases). The walk kernels
// scan the CSR row arrays and O(|V|) mass vectors constantly; reordering
// nodes so hot rows cluster (degree) or neighborhoods stay in nearby blocks
// (BFS) makes those scans cache-friendlier without changing any score beyond
// floating-point summation order within a row.
type RelabelMode = graph.RelabelMode

const (
	// RelabelOff runs joins on the graph as built (the default).
	RelabelOff = graph.NoRelabel
	// RelabelDegree orders nodes by descending total degree.
	RelabelDegree = graph.ByDegree
	// RelabelBFS orders nodes in breadth-first visit order from high-degree
	// roots.
	RelabelBFS = graph.ByBFS
)

// Relabel returns the graph reordered under the given mode together with
// the id map: feed the relabeled graph and Relabeling.MapToNew'd node sets
// to the joins, and Relabeling.ToOld the result ids. Callers that keep a
// graph around should relabel once and reuse the pair; the Options.Relabel
// knob does exactly that internally through a per-graph cache.
func Relabel(g *Graph, mode RelabelMode) (*Graph, *Relabeling) {
	return graph.Relabel(g, mode)
}

// relabelKey identifies one cached relabeled graph.
type relabelKey struct {
	g    *Graph
	mode RelabelMode
}

// relabeled pairs a reordered graph with its id map.
type relabeled struct {
	g *Graph
	r *Relabeling
}

// relabelCacheCap bounds the relabeled-graph cache. The cache holds strong
// references to its key graphs, so an unbounded cache would pin every graph
// a process ever relabeled; a small LRU keeps the steady-state win (one
// rebuild per long-lived graph) while transient graphs age out and both
// copies become collectable.
const relabelCacheCap = 4

// relabelLRU memoizes Relabel per (graph, mode), so repeated Options-level
// joins on the same graph pay the O(|E| log |E|) rebuild once. Graphs are
// immutable, which is what makes the pointer a sound key.
type relabelLRU struct {
	sync.Mutex
	cap     int
	entries map[relabelKey]*relabeled
	order   []relabelKey // most recently used last
}

var relabelCache = newRelabelLRU(relabelCacheCap)

func newRelabelLRU(capacity int) *relabelLRU {
	return &relabelLRU{cap: capacity, entries: make(map[relabelKey]*relabeled, capacity)}
}

// touchLocked moves key to the most-recently-used position. The caller holds
// the lock and has verified the key is present.
func (c *relabelLRU) touchLocked(key relabelKey) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}

// lookup returns the cached entry for key, refreshing its recency.
func (c *relabelLRU) lookup(key relabelKey) (*relabeled, bool) {
	c.Lock()
	defer c.Unlock()
	rl, ok := c.entries[key]
	if ok {
		c.touchLocked(key)
	}
	return rl, ok
}

// insert publishes rl under key, evicting the least recently used entry when
// full. When another goroutine raced the caller's rebuild and already
// published an entry for key, that entry is shared — and its recency is
// refreshed, exactly as a lookup hit would: the key is demonstrably hot (two
// goroutines just asked for it), so it must not stay in line for eviction as
// "oldest".
func (c *relabelLRU) insert(key relabelKey, rl *relabeled) *relabeled {
	c.Lock()
	defer c.Unlock()
	if prev, ok := c.entries[key]; ok {
		c.touchLocked(key)
		return prev
	}
	if len(c.order) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[key] = rl
	c.order = append(c.order, key)
	return rl
}

// relabeledFor returns the cached reordering of g under mode.
func relabeledFor(g *Graph, mode RelabelMode) (*Graph, *Relabeling) {
	if mode == RelabelOff {
		return g, nil
	}
	key := relabelKey{g, mode}
	if rl, ok := relabelCache.lookup(key); ok {
		return rl.g, rl.r
	}
	// Rebuild outside the lock: Relabel is O(|E| log |E|) and g immutable.
	rg, r := Relabel(g, mode)
	rl := relabelCache.insert(key, &relabeled{rg, r})
	return rl.g, rl.r
}

// relabelPairConfig rewrites a 2-way config into the relabeled id space and
// returns the map-back for its results (nil when mode is off).
func relabelPairConfig(cfg *join2.Config, mode RelabelMode) func(PairResult) PairResult {
	rg, r := relabeledFor(cfg.Graph, mode)
	if r == nil {
		return nil
	}
	cfg.Graph = rg
	cfg.P = r.MapToNew(cfg.P)
	cfg.Q = r.MapToNew(cfg.Q)
	return func(pr PairResult) PairResult {
		pr.Pair.P, pr.Pair.Q = r.ToOld(pr.Pair.P), r.ToOld(pr.Pair.Q)
		return pr
	}
}

// relabelSpec rewrites an n-way spec (graph and query node sets) into the
// relabeled id space and returns the map-back for its answers (nil when mode
// is off).
func relabelSpec(spec *core.Spec, mode RelabelMode) func(Answer) Answer {
	rg, r := relabeledFor(spec.Graph, mode)
	if r == nil {
		return nil
	}
	sets := make([]*NodeSet, spec.Query.NumSets())
	for i := range sets {
		sets[i] = r.MapSetToNew(spec.Query.Set(i))
	}
	q := core.NewQueryGraph(sets...)
	for _, e := range spec.Query.Edges() {
		q.AddEdge(e.From, e.To)
	}
	spec.Graph = rg
	spec.Query = q
	return func(a Answer) Answer {
		for i := range a.Nodes {
			a.Nodes[i] = r.ToOld(a.Nodes[i])
		}
		return a
	}
}
