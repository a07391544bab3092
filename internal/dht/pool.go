package dht

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Counters aggregates engine work across walks — and, through atomic adds,
// across the engines of concurrent requests. Attach one as BatchEngine.Sink
// (or EnginePool.Sink) and read it with Snapshot.
type Counters struct {
	Walks      int64 // walk invocations
	EdgeSweeps int64 // full O(|E|) dense relaxation sweeps
	// FrontierEdges counts every CSR edge scanned outside a dense sweep: by
	// sparse frontier pushes and by gathered tail steps (a backward walk's
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
// engines are still writing.
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
// backed by sync.Pools, so concurrent requests and repeated joins reuse the
// O(|V|) scratch vectors instead of allocating fresh ones. It pools two
// widths: Get hands out a width-1 engine, for a lone walk, and GetBatch one
// at least DefaultBatchWidth columns wide, for batched walks (callers chunk
// at the width of the engine they were handed, BatchEngine.W). Put takes
// either back. Engines carry the pool's Sink; each is still
// single-goroutine — the pool only makes checkout/checkin concurrency-safe.
type EnginePool struct {
	G      *graph.Graph
	Params Params
	D      int

	// Sink, when non-nil, is attached to every engine the pool hands out.
	Sink *Counters

	pool  sync.Pool // width 1
	bpool sync.Pool // width ≥ DefaultBatchWidth

	// outstanding counts engines currently checked out (Get/GetBatch minus
	// Put). It is a leak detector for the streaming paths: a stream stopped
	// early must return every engine it checked out, and the cancellation
	// tests assert Outstanding() == 0 after an abort.
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

// Get checks out a width-1 engine. The configuration was validated by
// NewEnginePool, so construction cannot fail here.
func (pl *EnginePool) Get() *BatchEngine { return pl.get(&pl.pool, 1) }

// GetBatch checks out an engine with column capacity ≥ DefaultBatchWidth.
func (pl *EnginePool) GetBatch() *BatchEngine { return pl.get(&pl.bpool, DefaultBatchWidth) }

// get checks an engine of width w out of p. Pool entries are validated
// against the pool's (graph, params, d): a mismatched engine — possible when
// a caller recycled a pool value built for another graph, or mutated the
// pool's fields — is dropped and replaced by a fresh engine rather than
// resized in place, so a stale engine can never leak scratch sized to a
// different |V| into a walk.
func (pl *EnginePool) get(p *sync.Pool, w int) *BatchEngine {
	be, _ := p.Get().(*BatchEngine)
	if be == nil || !pl.fits(be) {
		be, _ = NewBatchEngine(pl.G, pl.Params, pl.D, w)
	}
	be.Sink = pl.Sink
	pl.outstanding.Add(1)
	return be
}

// Put returns an engine obtained from Get or GetBatch for reuse. Engines that
// do not match the pool's configuration, or are of neither pooled width, are
// discarded instead of retained.
func (pl *EnginePool) Put(be *BatchEngine) {
	if be == nil {
		return
	}
	pl.outstanding.Add(-1)
	switch {
	case !pl.fits(be):
	case be.W == 1:
		pl.pool.Put(be)
	case be.W >= DefaultBatchWidth:
		pl.bpool.Put(be)
	}
}

// fits reports whether be was built for the pool's configuration.
func (pl *EnginePool) fits(be *BatchEngine) bool {
	return be.G == pl.G && be.Params == pl.Params && be.D == pl.D
}

// Outstanding reports the number of engines currently checked out and not
// yet returned. A stream or joiner that released all its resources leaves
// this at zero; the -race cancellation tests assert exactly that after a
// mid-stream abort.
func (pl *EnginePool) Outstanding() int64 { return pl.outstanding.Load() }
