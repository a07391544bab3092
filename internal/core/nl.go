package core

import (
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/pqueue"
)

// NL is the Nested Loop baseline (§III-B): it enumerates the full candidate
// space Π|R_i| with n nested loops and evaluates every edge's DHT score with
// a fresh forward walk for every candidate answer — no sharing, no pruning.
// It exists to anchor the evaluation; it is infeasible beyond tiny inputs
// (the paper could not complete it for n ≥ 3).
type NL struct {
	spec  Spec
	Stats RunStats
}

// NewNL validates the spec and returns the algorithm.
func NewNL(spec Spec) (*NL, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &NL{spec: spec}, nil
}

// Name implements Algorithm.
func (a *NL) Name() string { return "NL" }

// Run implements Algorithm.
func (a *NL) Run() ([]Answer, error) {
	return a.rank(a.spec.clampK())
}

// Stream returns the rank-ordered answer stream. Nothing about brute-force
// enumeration is incremental, so the entire ranking (the full candidate
// space — O(Π|R_i|) memory) is computed up front and replayed; NL streams
// exist for interface completeness, not latency.
func (a *NL) Stream() (TupleStream, error) {
	answers, err := a.rank(a.spec.Query.MaxAnswers())
	if err != nil {
		return nil, err
	}
	return &listTupleStream{answers: answers}, nil
}

// rank enumerates the candidate space and keeps the k best. Ties are broken
// by insertion order (the odometer enumeration), which is deterministic, so
// the top-k ranking is always a prefix of the top-(k+1) ranking — the
// prefix invariant Stream relies on.
func (a *NL) rank(k int) ([]Answer, error) {
	e, err := dht.NewBatchEngine(a.spec.Graph, a.spec.Params, a.spec.D, 1)
	if err != nil {
		return nil, err
	}
	q := a.spec.Query
	n := q.NumSets()
	out := pqueue.NewTopK[Answer](k)

	idx := make([]int, n) // odometer over the node sets
	tuple := make([]graph.NodeID, n)
	edgeScores := make([]float64, len(q.Edges()))
	for {
		if err := a.spec.canceled(); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			tuple[i] = q.Set(i).Nodes()[idx[i]]
		}
		if a.spec.keepTuple(tuple) {
			for ei, qe := range q.Edges() {
				edgeScores[ei] = e.ForwardScore(a.spec.Measure, tuple[qe.From], tuple[qe.To], a.spec.D)
			}
			a.Stats.Candidates++
			cp := make([]graph.NodeID, n)
			copy(cp, tuple)
			out.Add(Answer{Nodes: cp}, a.spec.Agg.Combine(edgeScores))
		}

		// Advance the odometer.
		pos := n - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < q.Set(pos).Len() {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			break
		}
	}
	a.Stats.DHTWalks, a.Stats.DHTEdgeSweeps, a.Stats.DHTFrontierEdges = e.Walks, e.EdgeSweeps, e.FrontierEdges

	answers, scores := out.Sorted()
	for i := range answers {
		answers[i].Score = scores[i]
	}
	return answers, nil
}
