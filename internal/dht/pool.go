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
	// sparse frontier pushes and by the gathered tail steps of the batched
	// kernel's rows form. EdgeSweeps·|E| + FrontierEdges is therefore all the
	// edge work the engines did.
	FrontierEdges int64

	// Certification counters, maintained by the certified joiners through
	// Certify rather than by the engines themselves: how often the fast
	// kernel was picked, and how much exact re-verification it cost.
	KernelPicks   int64 // fast-kernel runs (one per certified fast pass)
	Reverified    int64 // pairs re-scored through the bit-identical kernel
	FallbackPairs int64 // band pairs beyond k — uncertifiable from fast scores alone

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

// Certify accumulates one certified fast pass's bookkeeping atomically,
// forwarding down the chain: picks counts fast-kernel runs, reverified the
// pairs re-scored through the bit-identical kernel, and fallback the band
// pairs the fast scores alone could not certify.
func (c *Counters) Certify(picks, reverified, fallback int64) {
	atomic.AddInt64(&c.KernelPicks, picks)
	atomic.AddInt64(&c.Reverified, reverified)
	atomic.AddInt64(&c.FallbackPairs, fallback)
	if c.Chain != nil {
		c.Chain.Certify(picks, reverified, fallback)
	}
}

// Snapshot returns a consistent copy using atomic loads, safe to call while
// workers are still writing.
func (c *Counters) Snapshot() Counters {
	return Counters{
		Walks:         atomic.LoadInt64(&c.Walks),
		EdgeSweeps:    atomic.LoadInt64(&c.EdgeSweeps),
		FrontierEdges: atomic.LoadInt64(&c.FrontierEdges),
		KernelPicks:   atomic.LoadInt64(&c.KernelPicks),
		Reverified:    atomic.LoadInt64(&c.Reverified),
		FallbackPairs: atomic.LoadInt64(&c.FallbackPairs),
	}
}

// Reset zeroes the counters atomically.
func (c *Counters) Reset() {
	atomic.StoreInt64(&c.Walks, 0)
	atomic.StoreInt64(&c.EdgeSweeps, 0)
	atomic.StoreInt64(&c.FrontierEdges, 0)
	atomic.StoreInt64(&c.KernelPicks, 0)
	atomic.StoreInt64(&c.Reverified, 0)
	atomic.StoreInt64(&c.FallbackPairs, 0)
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

	// FastWidth is the lane count of the fast engines GetFast hands out;
	// zero selects DefaultFastWidth. Set it before the first GetFast.
	FastWidth int

	// Sink, when non-nil, is attached to every engine the pool hands out.
	Sink *Counters

	pool  sync.Pool
	bpool sync.Pool
	fpool sync.Pool

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

// GetBatch checks out a bit-identical batch engine with column capacity ≥
// DefaultBatchWidth. Entries are validated like Get's: a mismatched or
// too-narrow engine is dropped and replaced. The validation is also the
// cross-contract firewall: sync.Pool stores untyped values, so a recycled
// entry of the wrong engine kind (e.g. a FastCertified engine shoved into
// the batch pool) fails the checked type assertion or the Contract check
// and is dropped — a fast engine must never satisfy a bit-identical
// checkout, because every caller of GetBatch relies on == comparability of
// the scores.
func (pl *EnginePool) GetBatch() *BatchEngine {
	be, _ := pl.bpool.Get().(*BatchEngine)
	if be == nil || be.Contract() != BitIdentical ||
		be.G != pl.G || be.Params != pl.Params || be.D != pl.D || be.W < DefaultBatchWidth {
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
	if be.Contract() != BitIdentical ||
		be.G != pl.G || be.Params != pl.Params || be.D != pl.D || be.W < DefaultBatchWidth {
		return
	}
	pl.bpool.Put(be)
}

// fastWidth resolves the pool's fast-engine lane count.
func (pl *EnginePool) fastWidth() int {
	if pl.FastWidth > 0 {
		return pl.FastWidth
	}
	return DefaultFastWidth
}

// GetFast checks out a FastCertified engine with lane count ≥ the pool's
// FastWidth. The mirror-image of GetBatch's firewall applies: only an entry
// that asserts to *FastBatchEngine, reports the FastCertified contract, and
// matches the pool's configuration is reused — anything else (including a
// bit-identical engine recycled into the wrong pool) is dropped and
// replaced, so the two contracts can never satisfy each other's checkouts.
func (pl *EnginePool) GetFast() *FastBatchEngine {
	w := pl.fastWidth()
	fe, _ := pl.fpool.Get().(*FastBatchEngine)
	if fe == nil || fe.Contract() != FastCertified ||
		fe.G != pl.G || fe.Params != pl.Params || fe.D != pl.D || fe.W < w {
		fe, _ = NewFastBatchEngine(pl.G, pl.Params, pl.D, w, 0)
	}
	fe.Sink = pl.Sink
	pl.outstanding.Add(1)
	return fe
}

// PutFast returns a fast engine obtained from GetFast for reuse, discarding
// mismatched ones.
func (pl *EnginePool) PutFast(fe *FastBatchEngine) {
	if fe == nil {
		return
	}
	pl.outstanding.Add(-1)
	if fe.Contract() != FastCertified ||
		fe.G != pl.G || fe.Params != pl.Params || fe.D != pl.D || fe.W < pl.fastWidth() {
		return
	}
	pl.fpool.Put(fe)
}
