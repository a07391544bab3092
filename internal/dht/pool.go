package dht

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Counters aggregates engine work across walks — and, through atomic adds,
// across the concurrent engines of a worker pool. Attach one as Engine.Sink
// (or EnginePool.Sink) and read it with Snapshot once the workers are done.
type Counters struct {
	Walks      int64 // walk invocations
	EdgeSweeps int64 // full O(|E|) dense relaxation sweeps
	// FrontierEdges counts every CSR edge scanned outside a dense sweep: by
	// sparse frontier pushes and by gathered tail steps (the batched kernel's
	// rows form, a lone Y⁺ₗ table's walk). EdgeSweeps·|E| + FrontierEdges is
	// therefore all the edge work the engines did.
	FrontierEdges int64

	// Chain, when non-nil, additionally receives every increment. It lets a
	// run-scoped counter (an algorithm's RunStats source) forward its deltas
	// to a process-lifetime counter (the serving layer's /stats) without the
	// engines knowing about either. Set it before the counter is shared with
	// any engine; it is read without synchronization afterwards.
	Chain *Counters
}

// add accumulates one walk's deltas atomically, forwarding down the chain.
func (c *Counters) add(walks, sweeps, frontierEdges int64) {
	atomic.AddInt64(&c.Walks, walks)
	atomic.AddInt64(&c.EdgeSweeps, sweeps)
	atomic.AddInt64(&c.FrontierEdges, frontierEdges)
	if c.Chain != nil {
		c.Chain.add(walks, sweeps, frontierEdges)
	}
}

// Snapshot returns a consistent copy using atomic loads, safe to call while
// workers are still writing.
func (c *Counters) Snapshot() Counters {
	return Counters{
		Walks:         atomic.LoadInt64(&c.Walks),
		EdgeSweeps:    atomic.LoadInt64(&c.EdgeSweeps),
		FrontierEdges: atomic.LoadInt64(&c.FrontierEdges),
	}
}

// Reset zeroes the counters atomically.
func (c *Counters) Reset() {
	atomic.StoreInt64(&c.Walks, 0)
	atomic.StoreInt64(&c.EdgeSweeps, 0)
	atomic.StoreInt64(&c.FrontierEdges, 0)
}

// EnginePool hands out engines for one (graph, params, d) configuration
// backed by a sync.Pool, so worker goroutines and repeated joins reuse the
// O(|V|) scratch vectors instead of allocating fresh ones. Engines returned
// by Get carry the pool's Sink; each engine is still single-goroutine — the
// pool only makes checkout/checkin concurrency-safe.
//
// Batch engines are pooled too (GetBatch/PutBatch), every one at least
// DefaultBatchWidth columns wide; callers chunk at the width of the engine
// they were handed (BatchEngine.W).
type EnginePool struct {
	G      *graph.Graph
	Params Params
	D      int

	// Sink, when non-nil, is attached to every engine the pool hands out.
	Sink *Counters

	pool  sync.Pool
	bpool sync.Pool

	// outstanding counts engines currently checked out (Get/GetBatch minus
	// Put/PutBatch). It is a leak detector for the streaming paths: a stream
	// stopped early must return every engine it checked out, and the
	// cancellation tests assert Outstanding() == 0 after an abort.
	outstanding atomic.Int64
}

// NewEnginePool validates the configuration once and returns the pool. No
// engine is built until the first checkout, so a pool — and with it a
// throw-away serving session — costs O(1) in |V|.
func NewEnginePool(g *graph.Graph, p Params, d int) (*EnginePool, error) {
	if err := validateConfig(p, d); err != nil {
		return nil, err
	}
	return &EnginePool{G: g, Params: p, D: d}, nil
}

// Get checks out an engine. The configuration was validated by
// NewEnginePool, so construction cannot fail here. Pool entries are
// validated against the pool's (graph, params, d): a mismatched engine —
// possible when a caller recycled a pool value built for another graph, or
// mutated the pool's fields — is dropped and replaced by a fresh engine
// rather than resized in place, so a stale engine can never leak scratch
// sized to a different |V| into a walk.
func (pl *EnginePool) Get() *Engine {
	e, _ := pl.pool.Get().(*Engine)
	if e == nil || e.G != pl.G || e.Params != pl.Params || e.D != pl.D {
		e, _ = NewEngine(pl.G, pl.Params, pl.D)
	}
	e.Sink = pl.Sink
	pl.outstanding.Add(1)
	return e
}

// Put returns an engine obtained from Get for reuse. Engines that do not
// match the pool's configuration are discarded instead of retained.
func (pl *EnginePool) Put(e *Engine) {
	if e == nil {
		return
	}
	pl.outstanding.Add(-1)
	if e.G != pl.G || e.Params != pl.Params || e.D != pl.D {
		return
	}
	pl.pool.Put(e)
}

// Outstanding reports the number of engines (solo and batch) currently
// checked out and not yet returned. A stream or joiner that released all its
// resources leaves this at zero; the -race cancellation tests assert exactly
// that after a mid-stream abort.
func (pl *EnginePool) Outstanding() int64 { return pl.outstanding.Load() }

// GetBatch checks out a batch engine with column capacity ≥
// DefaultBatchWidth. Entries are validated like Get's: a mismatched or
// too-narrow engine is dropped and replaced.
func (pl *EnginePool) GetBatch() *BatchEngine {
	be, _ := pl.bpool.Get().(*BatchEngine)
	if be == nil || be.G != pl.G || be.Params != pl.Params || be.D != pl.D || be.W < DefaultBatchWidth {
		be, _ = NewBatchEngine(pl.G, pl.Params, pl.D, DefaultBatchWidth)
	}
	be.Sink = pl.Sink
	pl.outstanding.Add(1)
	return be
}

// PutBatch returns a batch engine obtained from GetBatch for reuse,
// discarding mismatched ones.
func (pl *EnginePool) PutBatch(be *BatchEngine) {
	if be == nil {
		return
	}
	pl.outstanding.Add(-1)
	if be.G != pl.G || be.Params != pl.Params || be.D != pl.D || be.W < DefaultBatchWidth {
		return
	}
	pl.bpool.Put(be)
}
