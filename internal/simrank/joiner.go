package simrank

// This file makes SimRank a served join: SR-SCAN is a join2.Joiner over the
// fixed-point matrix, registered with the planner under Measure "simrank" so
// the same Decide → NewNamedStream → rejoin-stream path that serves the walk
// measures serves SimRank too. The matrix is the expensive part (dense n²
// fixed point, capped at a few thousand nodes); the joiner computes it once,
// keeps it across the rejoin stream's growing TopK calls, and shares it
// process-wide through a small per-graph cache so repeated serving-layer
// queries against the same graph do not recompute the fixed point.

import (
	"fmt"
	"sync"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/plan"
	"repro/internal/pqueue"
)

// matrixCacheCap bounds the per-graph matrix cache. Each entry is O(n²)
// float64 (≤ 128 MiB at the 4096-node cap), so the cache stays tiny; the
// serving layer rarely has more than a couple of SimRank-queried graphs
// resident at once.
const matrixCacheCap = 2

var matrixCache = struct {
	sync.Mutex
	byGraph *pqueue.LRU[*graph.Graph, *Matrix]
}{byGraph: pqueue.NewLRU[*graph.Graph, *Matrix](matrixCacheCap)}

// SharedMatrix returns the default-options SimRank matrix for g, computing
// it on first use and caching the most recent graphs by identity. Graphs are
// immutable once built (the store swaps pointers on update), so pointer
// identity is a sound cache key. Two concurrent first queries may both
// compute the matrix; both results are identical and one wins the cache
// slot — a benign cost, taken to avoid serializing unrelated graphs behind
// one fixed-point iteration.
func SharedMatrix(g *graph.Graph) (*Matrix, error) {
	matrixCache.Lock()
	m, ok := matrixCache.byGraph.Get(g)
	matrixCache.Unlock()
	if ok {
		return m, nil
	}
	m, err := Compute(g, nil)
	if err != nil {
		return nil, err
	}
	matrixCache.Lock()
	matrixCache.byGraph.Put(g, m)
	matrixCache.Unlock()
	return m, nil
}

// Joiner is SR-SCAN: the top-k 2-way join under SimRank. It satisfies
// join2.Joiner, so the rejoin stream, the serving layer, and the n-way
// per-edge machinery drive it exactly like the walk joiners. The walk knobs
// of the config (Params, D, Measure, Workers, Pool) are
// accepted and ignored — SimRank scores come from the fixed point, not from
// walks — which is what lets one join2.Config type serve every measure.
type Joiner struct {
	cfg join2.Config
	m   *Matrix
}

// NewJoiner validates the config and returns an SR-SCAN joiner. The matrix
// is computed lazily on the first TopK, so opening a stream stays cheap.
func NewJoiner(cfg join2.Config) (*Joiner, error) {
	// The walk knobs are ignored here (SimRank scores come from the fixed
	// point), so a caller that never resolved them should not be rejected
	// by the walk-centric config validation.
	if cfg.Params == (dht.Params{}) {
		cfg.Params = dht.DHTE() // any valid coefficients: never read
	}
	if cfg.D == 0 {
		cfg.D = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n := cfg.Graph.NumNodes(); n > maxNodes {
		return nil, fmt.Errorf("simrank: dense iteration limited to %d nodes, got %d", maxNodes, n)
	}
	return &Joiner{cfg: cfg}, nil
}

// Name identifies the executor in plans and reports.
func (j *Joiner) Name() string { return "SR-SCAN" }

// canceled polls the config's cancellation hook.
func (j *Joiner) canceled() error {
	if j.cfg.Cancel == nil {
		return nil
	}
	return j.cfg.Cancel()
}

// TopK returns the k highest-SimRank pairs (p, q) ∈ P×Q in descending score
// order with the canonical join2 tie key, so every top-m selection is a
// prefix of the top-(m+1) selection — the invariant the rejoin stream
// depends on. The candidate space is scanned against a bounded heap; the
// full |P|×|Q| score matrix is never materialized. Cancellation is polled
// per source row.
func (j *Joiner) TopK(k int) ([]join2.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("simrank: k must be positive, got %d", k)
	}
	if err := j.canceled(); err != nil {
		return nil, err
	}
	if j.m == nil {
		m, err := SharedMatrix(j.cfg.Graph)
		if err != nil {
			return nil, err
		}
		j.m = m
	}
	if space := j.cfg.MaxPairs(); k > space {
		k = space
	}
	top := pqueue.NewTopK[join2.Pair](k)
	for _, a := range j.cfg.P {
		if err := j.canceled(); err != nil {
			return nil, err
		}
		row := j.m.s[int(a)*j.m.n:]
		for _, b := range j.cfg.Q {
			pr := join2.Pair{P: a, Q: b}
			top.AddTie(pr, row[b], join2.TieKey(pr))
		}
	}
	pairs, scores := top.Sorted()
	out := make([]join2.Result, len(pairs))
	for i := range pairs {
		out[i] = join2.Result{Pair: pairs[i], Score: scores[i]}
	}
	return out, nil
}

// costSRScan prices SR-SCAN for the planner: the fixed-point iteration
// (iters rounds of Σ_{a,b} |I(a)|·|I(b)| pair recursions, modeled through
// the mean degree) plus the heap scan over the candidate space. The compute
// term dominates by orders of magnitude on anything but trivial graphs —
// which is honest: it is what a cold SimRank query costs. The per-graph
// matrix cache makes warm queries far cheaper, but the planner has no
// cross-query state to see that, and for a given measure the estimate only
// orders SimRank executors against each other anyway.
func costSRScan(w plan.Workload) float64 {
	n := float64(w.Stats.Nodes)
	deg := w.Stats.MeanOutDeg
	if deg < 1 {
		deg = 1
	}
	const defaultIters = 10
	compute := defaultIters * n * n * deg * deg / 2
	pq := float64(w.P) * float64(w.Q)
	return compute + pq*plan.PairCost
}

func init() {
	plan.Register(plan.Descriptor{
		Name:    "SR-SCAN",
		Class:   plan.TwoWay,
		Measure: "simrank",
		// Materializing executor: streaming past the initial batch re-joins
		// with a grown budget (cheap here — the matrix is cached on the
		// joiner, so a re-join is one heap scan).
		Streaming: false,
		Resumable: false,
		Cost:      costSRScan,
		New:       join2.Factory(func(cfg join2.Config) (join2.Joiner, error) { return NewJoiner(cfg) }),
	})
}
