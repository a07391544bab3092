package join2

import (
	"fmt"

	"repro/internal/dht"
	"repro/internal/graph"
)

// batchMinSteps is the shortest walk handed to a width-8 engine. Shorter
// walks (the l = 1, 2 deepening rounds) run one target at a time on a
// width-1 engine, whose β-prefilled column serves a sparse walk in O(walk
// frontier) time; like every round they walk the rows form over P, so a
// step that would sweep the whole graph — most l = 2 second steps on a
// small-world graph — gathers over P's out-edges instead. A single walk
// never batches either.
const batchMinSteps = 3

// walker is the one way a 2-way joiner walks a target set: every score the
// exact kernels produce for a joiner is requested through columns (backward,
// one column h_l(·, q) per target) or pairScores (forward, one walk per
// pair). It owns the engines, the width-1-vs-batched choice, chunking, the
// cancellation polls and the panic guard, so the joiners are left with their
// heap logic.
//
// Engines come from the caller's Config.Pool, or from a pool the walker
// owns. The width-1 and the batch engine are checked out on first use and
// held until release, so a joiner walks on the same two engines for its
// whole lifetime.
//
// A walker, like the joiner that owns it, is single-goroutine: every walk
// runs on the goroutine that calls it.
type walker struct {
	cfg  *Config
	pool *dht.EnginePool
	e    *dht.BatchEngine // width 1
	be   *dht.BatchEngine

	// rows is Config.P as the kernel's read set — every joiner reads a
	// walked column at the nodes of P and nowhere else — built by the first
	// round (nil when P is no minority of the graph; see dht.NewReadSet).
	rows      *dht.ReadSet
	rowsBuilt bool
}

// newWalker returns the walker of a joiner whose config passed Validate.
func newWalker(cfg *Config) *walker {
	pool := cfg.Pool
	if pool == nil {
		pool = &dht.EnginePool{G: cfg.Graph, Params: cfg.Params, D: cfg.D}
	}
	return &walker{cfg: cfg, pool: pool}
}

// lone returns the width-1 engine, checking it out on first use. The
// config's Counters win over the pool's own sink for the checkout, so
// run-scoped stats see the walks; owners that also want lifetime totals
// chain them (dht.Counters.Chain).
func (w *walker) lone() *dht.BatchEngine {
	if w.e == nil {
		w.e = w.checkout(w.pool.Get)
	}
	return w.e
}

// batch is lone for the batch engine.
func (w *walker) batch() *dht.BatchEngine {
	if w.be == nil {
		w.be = w.checkout(w.pool.GetBatch)
	}
	return w.be
}

func (w *walker) checkout(get func() *dht.BatchEngine) *dht.BatchEngine {
	be := get()
	if w.cfg.Counters != nil {
		be.Sink = w.cfg.Counters
	}
	return be
}

// release returns the walker's engines to the pool. The walker stays usable:
// the next call checks engines out again.
func (w *walker) release() {
	w.pool.Put(w.e)
	w.e = nil
	w.releaseBatch()
}

// releaseBatch returns only the batch engine, for a caller whose further
// rounds may never come; the next batched round checks one out again.
func (w *walker) releaseBatch() {
	w.pool.Put(w.be)
	w.be = nil
}

// guard runs fn, converting a panic into an error. Every walk loop and every
// caller callback runs under it, so a panic in a kernel or a callback
// surfaces as a joiner error the serving layer can answer with, and the
// joiner's Release still returns its engines to the pool.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("join2: panic in join walk: %v", p)
		}
	}()
	return fn()
}

// columns hands fn the backward score column h_l(·, q) of every q in qs,
// exactly once each and in qs order, as fn(qi, scores) with q = qs[qi].
// scores is valid only within the call, and only at the nodes of Config.P:
// every round walks the kernel's rows form over P (dht.BackWalkRowsBatch),
// which leaves every other entry unspecified.
//
// Walks of at least batchMinSteps steps over two or more targets run on the
// width-8 engine, in chunks of its width; everything else runs one target at
// a time on the width-1 engine. Config.Cancel is polled before every chunk.
// The first cancellation, or panic in a kernel or in fn, stops the round and
// is returned.
func (w *walker) columns(qs []graph.NodeID, l int, fn func(qi int, scores []float64)) error {
	c := w.cfg
	if len(qs) == 0 {
		return nil
	}
	if !w.rowsBuilt {
		w.rows, w.rowsBuilt = dht.NewReadSet(c.Graph, c.P), true
	}
	return guard(func() error {
		var be *dht.BatchEngine
		if l >= batchMinSteps && len(qs) >= 2 {
			be = w.batch()
		} else {
			be = w.lone()
		}
		for base := 0; base < len(qs); base += be.W {
			if err := c.canceled(); err != nil {
				return err
			}
			chunk := qs[base:min(base+be.W, len(qs))]
			for ci, col := range be.BackWalkRowsBatch(c.Measure, chunk, l, w.rows) {
				fn(base+ci, col)
			}
		}
		return nil
	})
}

// tables builds the Y⁺ₗ table of every (ps[i], qs[i]) pair on the walker's
// engines (dht.NewYBoundTables), under the rule columns and pairScores
// follow: a single walk never batches. A lone table walks at width 1,
// gathering its last two steps at Q; two or more are the lanes of forward
// batched walks, after one Config.Cancel poll. Panics are returned as errors.
func (w *walker) tables(ps, qs [][]graph.NodeID) ([]*dht.YBoundTable, error) {
	var ts []*dht.YBoundTable
	err := guard(func() error {
		if len(ps) == 1 {
			ts = dht.NewYBoundTables(w.lone(), ps, qs)
			return nil
		}
		if err := w.cfg.canceled(); err != nil {
			return err
		}
		ts = dht.NewYBoundTables(w.batch(), ps, qs)
		return nil
	})
	return ts, err
}

// pairScores hands fn the forward score h_l(ps[i], qs[i]) of every pair, in
// order, on the walker's engines: batched under the same rule as columns, one
// Config.Cancel poll per chunk, panics returned as errors.
func (w *walker) pairScores(ps, qs []graph.NodeID, l int, fn func(i int, score float64)) error {
	c := w.cfg
	n := len(ps)
	return guard(func() error {
		if l < batchMinSteps || n < 2 {
			e := w.lone()
			for i := range ps {
				if err := c.canceled(); err != nil {
					return err
				}
				fn(i, e.ForwardScore(c.Measure, ps[i], qs[i], l))
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
				s := 0.0 // h(v,v) = 0 by definition, as in ForwardScore
				if c.Measure != dht.FirstHit || ps[i] != qs[i] {
					s = c.Params.Score(row)
				}
				fn(i, s)
			}
		}
		return nil
	})
}
