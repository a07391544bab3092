// Package join2 implements the paper's 2-way join algorithms over discounted
// hitting time (§V–§VI): the forward-processing F-BJ and F-IDJ, the backward
// B-BJ and the pruning B-IDJ framework with its X⁺ₗ (Lemma 2) and Y⁺ₗ
// (Theorem 1) bound variants, and the incremental join state of §VI-D that
// lets PJ-i pull the (m+1)-th pair without a from-scratch top-(m+1) join.
//
// Given node sets P and Q, a top-k 2-way join returns the k pairs
// (p, q) ∈ P×Q with the highest truncated DHT scores h_d(p, q), sorted
// descending.
package join2

import (
	"fmt"
	"runtime"

	"repro/internal/dht"
	"repro/internal/graph"
)

// Pair is an ordered (p, q) node pair; p is drawn from the source set P and q
// from the target set Q of the join.
type Pair struct {
	P, Q graph.NodeID
}

// Result is a scored pair.
type Result struct {
	Pair  Pair
	Score float64
}

// Config carries everything a 2-way join needs. P and Q must be non-empty
// subsets of the graph's nodes.
type Config struct {
	Graph  *graph.Graph
	Params dht.Params
	D      int // truncation depth (Equation 4)
	P, Q   []graph.NodeID

	// Measure selects the step probability the score folds: the zero value
	// is the paper's first-hit DHT; dht.Reach joins over reach-based
	// measures such as Personalized PageRank (the paper's §VIII extension).
	Measure dht.Kind

	// Workers caps the goroutines a backward walk round (walker.columns) may
	// spread its targets across. 0 (the default) and 1 run serially, matching
	// the paper's single-threaded evaluation; a negative value selects
	// GOMAXPROCS. Results are bit-identical at any worker count.
	Workers int

	// Counters, when non-nil, accumulates the walk work of every engine the
	// join creates (including pooled worker engines) via atomic adds.
	Counters *dht.Counters

	// Pool, when non-nil, supplies the join's engines (solo and batched)
	// instead of a joiner-owned pool: the calling goroutine checks its
	// engines out on first use and keeps them until Release, extra workers
	// check theirs in and out per round (see walker), so a long-lived owner
	// (the serving layer) shares one pool's O(|V|) scratch across requests.
	// The pool must be built for the same (Graph, Params, D); Validate
	// rejects a mismatch.
	Pool *dht.EnginePool

	// Cancel, when non-nil, is polled at walk-round granularity: once per
	// deepening round, per walked chunk of targets or pairs, and per
	// refinement step of the incremental join. A non-nil return aborts the
	// join with that error, which is how the serving layer enforces deadline
	// budgets (and client disconnects) mid-round instead of only between
	// pulls. The function must be safe for concurrent use — worker
	// goroutines poll it too — and cheap, since rounds poll it on their hot
	// path. Cancellation never corrupts state: results already emitted by a
	// stream remain a correct ranking prefix.
	Cancel func() error
}

// canceled polls the cancellation hook; nil hooks never cancel.
func (c *Config) canceled() error {
	if c.Cancel == nil {
		return nil
	}
	return c.Cancel()
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Graph == nil {
		return fmt.Errorf("join2: nil graph")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.D < 1 {
		return fmt.Errorf("join2: depth d must be >= 1, got %d", c.D)
	}
	if len(c.P) == 0 || len(c.Q) == 0 {
		return fmt.Errorf("join2: node sets must be non-empty (|P|=%d |Q|=%d)", len(c.P), len(c.Q))
	}
	n := c.Graph.NumNodes()
	for _, u := range c.P {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("join2: P contains out-of-range node %d", u)
		}
	}
	for _, u := range c.Q {
		if u < 0 || int(u) >= n {
			return fmt.Errorf("join2: Q contains out-of-range node %d", u)
		}
	}
	if p := c.Pool; p != nil && (p.G != c.Graph || p.Params != c.Params || p.D != c.D) {
		return fmt.Errorf("join2: caller pool built for a different (graph, params, d) configuration")
	}
	return nil
}

// workerCount resolves Config.Workers against the number of independent
// work items: 0/1 → serial, negative → GOMAXPROCS, always capped by items.
func (c *Config) workerCount(targets int) int {
	w := c.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > targets {
		w = targets
	}
	return w
}

// pairTie is the canonical tie key used when two pairs have equal scores:
// smaller (p, q) wins. It makes every top-m selection a prefix of the
// top-(m+1) selection, which PJ's re-join stream depends on.
func pairTie(pr Pair) int64 {
	return int64(pr.P)<<32 | int64(uint32(pr.Q))
}

// TieKey exposes the canonical tie key: every emitted ranking — one-shot,
// re-joined, or pulled from the incremental F table at any depth — is ordered
// by (score descending, TieKey ascending), which is what lets a distributed
// merge of disjoint sub-rankings reproduce the single-stream order
// bit-identically.
func TieKey(pr Pair) int64 { return pairTie(pr) }

// Joiner is a top-k 2-way join algorithm.
type Joiner interface {
	// Name identifies the algorithm (e.g. "B-IDJ-Y") in reports.
	Name() string
	// TopK returns the k highest-scoring pairs in descending score order.
	// Fewer than k results are returned when |P|·|Q| < k.
	TopK(k int) ([]Result, error)
}

// MaxPairs returns |P|·|Q|, the size of the join's candidate space.
func (c *Config) MaxPairs() int { return len(c.P) * len(c.Q) }

// clampK limits k to the candidate space and rejects non-positive k.
func (c *Config) clampK(k int) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("join2: k must be positive, got %d", k)
	}
	if m := c.MaxPairs(); k > m {
		k = m
	}
	return k, nil
}
