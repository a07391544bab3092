package core

import (
	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/pqueue"
	"repro/internal/rankjoin"
)

// TupleStream pulls rank-ordered n-way answers one at a time: the control
// flow of Algorithm 1 turned inside out. The batch Run methods are thin
// wrappers that drain a stream, so a streamed prefix of length m is always
// identical to a one-shot top-m run.
type TupleStream interface {
	// Next returns the next-best answer with its aggregate score; ok is
	// false once the candidate space is exhausted.
	Next() (Answer, bool, error)
	// Release returns every pooled engine held by the per-edge sources and
	// folds the run's walk counters into the owning algorithm's RunStats.
	// Idempotent; callers that stop early MUST call it.
	Release()
}

// pbrjStream runs the PBRJ loop of Algorithm 1 (steps 5–14) over per-edge
// sources — round-robin pulls (HRJN), candidate buffers, getCandidate
// expansion — as an incremental rank join: an answer is emitted as soon as
// its aggregate score reaches the corner-bound threshold τ, at which point
// no not-yet-generated combination can beat it. Emission order is therefore
// descending by score; equal scores emit in a deterministic but otherwise
// unspecified order: the candidate heap has no tie key, a candidate's slot is
// its insertion count, and the only operations are that insert and removal
// of the maximum, so the heap's layout — hence the order among equal scores
// — is a pure function of the serial insertion sequence, which the sources'
// canonical rankings fix. Determinism is what the prefix invariant and
// the serving layer's prefix cache need — the batch Run methods drain this
// same stream, so stream and batch can never disagree. The m-th pull never
// does more source work than a one-shot top-m run.
type pbrjStream struct {
	spec  *Spec
	srcs  []edgeSource
	stats *RunStats
	ctrs  *dht.Counters

	bufs   []*buffer
	exp    *expander
	bound  *rankjoin.Bound
	rr     *rankjoin.RoundRobin
	cand   *pqueue.SlotHeap // confirmed-pending candidates: slot i is tuples[i], by aggregate score
	tuples [][]graph.NodeID // every candidate generated so far, in insertion order; nil once emitted
	seen   map[string]struct{}
	live   int // sources still in rotation

	// noBound disables the corner-bound early emit (sources are drained
	// completely before anything is emitted). Only the ablation benches set
	// it, through PJI.DisableCornerBound.
	noBound  bool
	released bool
}

// newPBRJStream wires the PBRJ state over already-built sources.
func newPBRJStream(spec *Spec, srcs []edgeSource, stats *RunStats, ctrs *dht.Counters, noBound bool) *pbrjStream {
	edges := spec.Query.Edges()
	bufs := make([]*buffer, len(edges))
	for i := range bufs {
		bufs[i] = newBuffer()
	}
	return &pbrjStream{
		spec:    spec,
		srcs:    srcs,
		stats:   stats,
		ctrs:    ctrs,
		bufs:    bufs,
		exp:     newExpander(spec.Query, bufs),
		bound:   rankjoin.NewBound(spec.Agg, len(edges)),
		rr:      rankjoin.NewRoundRobin(len(edges)),
		cand:    pqueue.NewSlotHeap(nil),
		seen:    make(map[string]struct{}),
		live:    len(edges),
		noBound: noBound,
	}
}

// Next implements TupleStream.
func (d *pbrjStream) Next() (Answer, bool, error) {
	for {
		// One PBRJ iteration per poll: a pull that keeps missing the corner
		// bound must still notice an expired deadline budget.
		if err := d.spec.canceled(); err != nil {
			return Answer{}, false, err
		}
		// Emit the best pending candidate once it clears the threshold —
		// τ bounds every answer that still involves an unseen pair, so a
		// candidate at or above it is globally next. With all sources
		// exhausted there is nothing left to wait for.
		if slot, prio, ok := d.cand.Max(); ok {
			if d.live == 0 || (!d.noBound && prio >= d.bound.Tau()) {
				d.cand.Remove(slot)
				a := Answer{Nodes: d.tuples[slot], Score: prio}
				d.tuples[slot] = nil
				return a, true, nil
			}
		} else if d.live == 0 {
			return Answer{}, false, nil
		}

		ei, ok := d.rr.Pick()
		if !ok {
			continue // all sources just exhausted; drain the heap
		}
		r, ok, err := d.srcs[ei].Next()
		if err != nil {
			return Answer{}, false, err
		}
		if !ok {
			d.rr.Exhaust(ei)
			d.bound.Exhaust(ei)
			d.live--
			continue
		}
		if d.stats != nil {
			d.stats.PairsPulled++
		}
		d.bound.Observe(ei, r.Score)
		d.bufs[ei].add(r)
		d.exp.expand(ei, r.Pair, func(nodes []graph.NodeID, edgeScores []float64) {
			if d.stats != nil {
				d.stats.Candidates++
			}
			if !d.spec.keepTuple(nodes) {
				return
			}
			key := answerKey(nodes)
			if _, dup := d.seen[key]; dup {
				return
			}
			d.seen[key] = struct{}{}
			tuple := make([]graph.NodeID, len(nodes))
			copy(tuple, nodes)
			d.cand.Set(int32(len(d.tuples)), d.spec.Agg.Combine(edgeScores))
			d.tuples = append(d.tuples, tuple)
		})
	}
}

// Release implements TupleStream.
func (d *pbrjStream) Release() {
	if d.released {
		return
	}
	d.released = true
	releaseSources(d.srcs)
	if d.stats != nil && d.ctrs != nil {
		d.stats.addCounters(d.ctrs)
	}
}

// drainTuples pulls up to k answers from a stream — the batch entry
// points' run-to-k loop. Errors discard the partial drain: Run contracts
// return (nil, err).
func drainTuples(st TupleStream, k int) ([]Answer, error) {
	out, err := join2.Drain(k, st.Next)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// listTupleStream emits a fully materialized ranking — NL's stream form
// (nothing about brute-force enumeration is incremental, so the whole
// ranking is computed up front and then replayed).
type listTupleStream struct {
	answers []Answer
	pos     int
}

func (s *listTupleStream) Next() (Answer, bool, error) {
	if s.pos >= len(s.answers) {
		return Answer{}, false, nil
	}
	a := s.answers[s.pos]
	s.pos++
	return a, true, nil
}

func (s *listTupleStream) Release() {}
