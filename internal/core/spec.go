package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/rankjoin"
)

// Spec fully describes one n-way join query (Definition 4).
type Spec struct {
	Graph  *graph.Graph
	Query  *QueryGraph
	Params dht.Params
	D      int                // truncation depth (Equation 4)
	Agg    rankjoin.Aggregate // monotonic f over the |E_Q| edge scores
	K      int                // number of answers

	// Distinct drops candidate answers that use the same graph node in two
	// tuple positions. The paper's model allows such tuples (node sets may
	// overlap, and h(v,v) = 0 is the maximum DHTλ score, so they would
	// dominate); applications like Table III's expert triples usually want
	// them suppressed. This is a library extension, off by default.
	Distinct bool

	// Measure selects the step probability the score folds: the zero value
	// is the paper's first-hit DHT; dht.Reach joins over reach measures
	// such as Personalized PageRank (the paper's §VIII extension).
	Measure dht.Kind

	// Pool, when non-nil, supplies the engines of every per-edge 2-way join
	// (join2.Config.Pool): the joins check engines out per call/round and the
	// algorithms return them after Run, so a long-lived owner (the serving
	// layer) shares one pool's scratch across requests. Must be built for
	// the same (Graph, Params, D); Validate rejects a mismatch.
	Pool *dht.EnginePool

	// Counters, when non-nil, additionally receives every engine counter
	// increment of the run (chained behind the run-scoped counters that feed
	// RunStats), so a long-lived owner can keep process-lifetime walk totals.
	Counters *dht.Counters

	// Cancel, when non-nil, is polled at walk-round granularity by every
	// per-edge 2-way join (join2.Config.Cancel) and between refinement pulls
	// of the n-way drivers. A non-nil return aborts the run with that error.
	// Must be cheap. Cancellation never corrupts state: answers
	// already emitted remain a correct ranking prefix.
	Cancel func() error
}

// canceled polls the cancellation hook; nil hooks never cancel.
func (s *Spec) canceled() error {
	if s.Cancel == nil {
		return nil
	}
	return s.Cancel()
}

// keepTuple applies the Distinct filter.
func (s *Spec) keepTuple(nodes []graph.NodeID) bool {
	if !s.Distinct {
		return true
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[i] == nodes[j] {
				return false
			}
		}
	}
	return true
}

// Validate checks the whole specification.
func (s *Spec) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("core: spec has nil graph")
	}
	if s.Query == nil {
		return fmt.Errorf("core: spec has nil query graph")
	}
	if err := s.Query.Validate(s.Graph); err != nil {
		return err
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.D < 1 {
		return fmt.Errorf("core: depth d must be >= 1, got %d", s.D)
	}
	if s.Agg == nil {
		return fmt.Errorf("core: spec has nil aggregate")
	}
	if s.K <= 0 {
		return fmt.Errorf("core: k must be positive, got %d", s.K)
	}
	if p := s.Pool; p != nil && (p.G != s.Graph || p.Params != s.Params || p.D != s.D) {
		return fmt.Errorf("core: caller pool built for a different (graph, params, d) configuration")
	}
	return nil
}

// runCounters returns the run-scoped counter sink for one Run invocation,
// chained to the spec's lifetime counters when set.
func (s *Spec) runCounters() *dht.Counters {
	return &dht.Counters{Chain: s.Counters}
}

// clampK limits k to the candidate-space size.
func (s *Spec) clampK() int {
	k := s.K
	if m := s.Query.MaxAnswers(); k > m {
		k = m
	}
	return k
}

// Answer is one result n-tuple: Nodes[i] ∈ R_i, Score = f(edge DHT scores).
type Answer struct {
	Nodes []graph.NodeID
	Score float64
}

// key serializes the tuple for deduplication.
func answerKey(nodes []graph.NodeID) string {
	var sb strings.Builder
	for i, n := range nodes {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(int(n)))
	}
	return sb.String()
}

// Format renders the answer using node labels when the graph has them.
func (a Answer) Format(g *graph.Graph) string {
	parts := make([]string, len(a.Nodes))
	for i, n := range a.Nodes {
		if l := g.Label(n); l != "" {
			parts[i] = l
		} else {
			parts[i] = strconv.Itoa(int(n))
		}
	}
	return fmt.Sprintf("(%s) f=%.6f", strings.Join(parts, ", "), a.Score)
}

// Algorithm is a complete n-way join evaluator.
type Algorithm interface {
	// Name identifies the algorithm ("NL", "AP", "PJ", "PJ-i") in reports.
	Name() string
	// Run evaluates the join and returns the top-k answers sorted by
	// descending score.
	Run() ([]Answer, error)
}

// RunStats describes the work performed by the last Run of an algorithm that
// exposes it.
type RunStats struct {
	PairsPulled      int64 // entries consumed from 2-way join streams
	Candidates       int64 // candidate answers generated (before dedup)
	Refetches        int64 // getNextNodePair invocations past the initial top-m
	DHTWalks         int64 // random-walk invocations in the DHT engine
	DHTEdgeSweeps    int64 // full O(|E|) dense relaxation sweeps in the DHT engine
	DHTFrontierEdges int64 // edges relaxed by sparse frontier pushes
}

// addCounters folds an engine-counter snapshot into the stats.
func (s *RunStats) addCounters(c *dht.Counters) {
	snap := c.Snapshot()
	s.DHTWalks += snap.Walks
	s.DHTEdgeSweeps += snap.EdgeSweeps
	s.DHTFrontierEdges += snap.FrontierEdges
}
