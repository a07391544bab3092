package join2

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// batchMinSteps is the shortest walk handed to the batched kernel. Shorter
// walks (the l = 1, 2 deepening rounds) touch so few nodes that the batch's
// zero lanes cost more than the amortized CSR traversal saves; they stay on
// the solo engine's β-prefilled column, which serves them in O(walk
// frontier) time. A single walk never batches either.
const batchMinSteps = 3

// walker is the one way a 2-way joiner walks a target set: every score the
// exact kernels produce for a joiner is requested through columns (backward,
// one column h_l(·, q) per target) or pairScores (forward, one walk per
// pair). It owns the engines, the solo-vs-batched choice, chunking, the
// fan-out over Config.Workers, the cancellation polls and the panic guard,
// so the joiners are left with their heap logic.
//
// Engines come from the caller's Config.Pool, or from a pool the walker
// owns. Worker 0 is the calling goroutine: its solo and batch engine are
// checked out on first use and held until release, so a serial joiner walks
// on the same two engines for its whole lifetime. Workers 1..n-1 exist only
// inside one columns call and check their engine in and out around it.
//
// A walker, like the joiner that owns it, is single-goroutine.
type walker struct {
	cfg  *Config
	pool *dht.EnginePool
	e    *dht.Engine
	be   *dht.BatchEngine

	// rows is Config.P as the kernel's read set — every joiner reads a
	// walked column at the nodes of P and nowhere else — built by the first
	// batched round (nil when P is no minority of the graph; see
	// dht.NewReadSet).
	rows      *dht.ReadSet
	rowsBuilt bool

	r round // the columns call in flight
}

// newWalker returns the walker of a joiner whose config passed Validate.
func newWalker(cfg *Config) *walker {
	pool := cfg.Pool
	if pool == nil {
		pool = &dht.EnginePool{G: cfg.Graph, Params: cfg.Params, D: cfg.D}
	}
	return &walker{cfg: cfg, pool: pool}
}

// solo returns worker 0's solo engine, checking it out on first use. The
// config's Counters win over the pool's own sink for the checkout, so
// run-scoped stats see the walks; owners that also want lifetime totals
// chain them (dht.Counters.Chain).
func (w *walker) solo() *dht.Engine {
	if w.e == nil {
		w.e = w.checkout()
	}
	return w.e
}

// batch is solo for worker 0's batch engine.
func (w *walker) batch() *dht.BatchEngine {
	if w.be == nil {
		w.be = w.checkoutBatch()
	}
	return w.be
}

func (w *walker) checkout() *dht.Engine {
	e := w.pool.Get()
	if w.cfg.Counters != nil {
		e.Sink = w.cfg.Counters
	}
	return e
}

func (w *walker) checkoutBatch() *dht.BatchEngine {
	be := w.pool.GetBatch()
	if w.cfg.Counters != nil {
		be.Sink = w.cfg.Counters
	}
	return be
}

// release returns worker 0's engines to the pool. The walker stays usable:
// the next call checks engines out again.
func (w *walker) release() {
	w.pool.Put(w.e)
	w.e = nil
	w.releaseBatch()
}

// releaseBatch returns only the batch engine, for a caller whose further
// rounds may never come; the next batched round checks one out again.
func (w *walker) releaseBatch() {
	w.pool.PutBatch(w.be)
	w.be = nil
}

// guard runs fn, converting a panic into an error. Every walk loop and every
// caller callback runs under it: a panic crossing a goroutine boundary would
// crash the whole process, while under guard it unwinds the worker's defers
// (returning checked-out engines to the pool) and surfaces as a joiner
// error the serving layer can answer with.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("join2: panic in join worker: %v", p)
		}
	}()
	return fn()
}

// round is the shared state of one columns call.
type round struct {
	l       int
	targets []graph.NodeID
	rows    *dht.ReadSet // the rows fn reads; nil is every node
	fn      func(wi, qi int, scores []float64)
	batched bool

	next atomic.Int64 // first unclaimed index of targets
	stop atomic.Bool  // a worker failed; the others stop at their next chunk
	mu   sync.Mutex
	err  error // the first failure
	wg   sync.WaitGroup
}

// columns hands fn the backward score column h_l(·, q) of every q in qs,
// exactly once each, as fn(wi, qi, scores) with q = qs[qi]. wi identifies
// the worker: calls with the same wi are sequential, calls with distinct wi
// may run concurrently, and wi < Config.workerCount(len(qs)) — so a caller
// keeps one partial result per wi and merges afterwards. With one worker,
// walked columns arrive in qs order. scores is valid only within the call,
// and only at the nodes of Config.P: a batched round walks the kernel's rows
// form over P (dht.BackWalkRowsBatch), which leaves every other entry
// unspecified.
//
// Walks of at least batchMinSteps steps over two or more targets run on the
// batched kernel, in chunks of the width of the engine each worker actually
// holds; everything else runs solo. Workers claim chunks from a shared
// cursor, and Config.Cancel is polled before every chunk. The first
// cancellation, or panic in a kernel or in fn, stops the round and is
// returned.
func (w *walker) columns(qs []graph.NodeID, l int, fn func(wi, qi int, scores []float64)) error {
	c := w.cfg
	n := len(qs)
	if n == 0 {
		return nil
	}
	r := &w.r
	*r = round{l: l, targets: qs, fn: fn}
	width := 1
	if r.batched = l >= batchMinSteps && n >= 2; r.batched {
		width = w.batch().W
		if !w.rowsBuilt {
			w.rows, w.rowsBuilt = dht.NewReadSet(c.Graph, c.P), true
		}
		r.rows = w.rows
	} else {
		w.solo()
	}
	workers := c.workerCount((n + width - 1) / width)
	for wi := 1; wi < workers; wi++ {
		r.wg.Add(1)
		go func(wi int) {
			defer r.wg.Done()
			r.work(w, wi)
		}(wi)
	}
	r.work(w, 0)
	r.wg.Wait()
	return r.err
}

// work is one worker's share of the round; its failure stops the others.
func (r *round) work(w *walker, wi int) {
	err := guard(func() error { return r.walk(w, wi) })
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.stop.Store(true)
}

func (r *round) walk(w *walker, wi int) error {
	kind := w.cfg.Measure
	e, be := w.e, w.be
	switch {
	case wi == 0:
	case r.batched:
		be = w.checkoutBatch()
		defer w.pool.PutBatch(be)
	default:
		e = w.checkout()
		defer w.pool.Put(e)
	}
	width := 1
	if r.batched {
		width = be.W
	}
	n := len(r.targets)
	for !r.stop.Load() {
		base := int(r.next.Add(int64(width))) - width
		if base >= n {
			break
		}
		if err := w.cfg.canceled(); err != nil {
			return err
		}
		if !r.batched {
			r.fn(wi, base, e.BackWalkScores(kind, r.targets[base], r.l))
			continue
		}
		chunk := r.targets[base:min(base+width, n)]
		for ci, col := range be.BackWalkRowsBatch(kind, chunk, r.l, r.rows) {
			r.fn(wi, base+ci, col)
		}
	}
	return nil
}

// newPartials returns one empty top-k collector per worker of a columns
// round, indexed by the wi the walker hands its callback.
func newPartials[T any](k, workers int) []*pqueue.TopK[T] {
	parts := make([]*pqueue.TopK[T], workers)
	for wi := range parts {
		parts[wi] = pqueue.NewTopK[T](k)
	}
	return parts
}

// mergePartials folds the workers' collectors into the round's top-k. With
// one worker the partial already is that — nothing is copied. Otherwise the
// result is the k best of the union, which does not depend on which worker
// saw which target: scores decide, and equal scores are ordered by tie (the
// canonical pair key; nil when only the k-th score is read, as for B-IDJ's
// lower bounds).
func mergePartials[T any](parts []*pqueue.TopK[T], k int, tie func(T) int64) *pqueue.TopK[T] {
	if len(parts) == 1 {
		return parts[0]
	}
	if tie == nil {
		tie = func(T) int64 { return 0 }
	}
	merged := pqueue.NewTopK[T](k)
	for _, part := range parts {
		items, scores := part.Sorted()
		for i, it := range items {
			merged.AddTie(it, scores[i], tie(it))
		}
	}
	return merged
}

// pairScores hands fn the forward score h_l(ps[i], qs[i]) of every pair, in
// order, on worker 0's engines: batched under the same rule as columns, one
// Config.Cancel poll per chunk, panics returned as errors.
func (w *walker) pairScores(ps, qs []graph.NodeID, l int, fn func(i int, score float64)) error {
	c := w.cfg
	n := len(ps)
	return guard(func() error {
		if l < batchMinSteps || n < 2 {
			e := w.solo()
			for i := range ps {
				if err := c.canceled(); err != nil {
					return err
				}
				fn(i, e.ForwardScoreKind(c.Measure, ps[i], qs[i], l))
			}
			return nil
		}
		be := w.batch()
		for base := 0; base < n; base += be.W {
			if err := c.canceled(); err != nil {
				return err
			}
			end := min(base+be.W, n)
			rows := be.ForwardProbsBatch(c.Measure, ps[base:end], qs[base:end], l)
			for ci, row := range rows {
				i := base + ci
				s := 0.0 // h(v,v) = 0 by definition, as in ForwardScoreAt
				if c.Measure != dht.FirstHit || ps[i] != qs[i] {
					s = c.Params.Score(row)
				}
				fn(i, s)
			}
		}
		return nil
	})
}
