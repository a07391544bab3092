package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/plan"
	"repro/internal/simrank"
)

// enter counts one join request and applies the drain gate.
func (s *Service) enter(class plan.Class) error {
	if class == plan.NWay {
		s.joinNReqs.Add(1)
	} else {
		s.join2Reqs.Add(1)
	}
	return s.admitGate()
}

// openJoin opens a streaming join request: results arrive one at a time in
// rank order, bit-identical to the prefix of the corresponding batch call.
// ctx cancellation (e.g. a disconnected HTTP client) aborts the work and
// returns the engines to the session pool.
func openJoin[T any](s *Service, ctx context.Context, graphName string, spec joinSpec[T], query Query) (*Stream[T], error) {
	if err := s.enter(spec.class()); err != nil {
		return nil, err
	}
	if st, claimed, err := spec.route(ctx, s, graphName, query); claimed {
		return st, err
	}
	rq, err := resolveJoin(s, graphName, spec, query)
	if err != nil {
		return nil, err
	}
	if rq.key != "" {
		// A cached complete ranking replays without a join (a stream's
		// demand is unknown up front, so only an exhausted prefix can serve
		// it whole).
		if pre, ok := rq.sess.results.getFull(rq.key); ok {
			s.resultHits.Add(1)
			if ctx == nil {
				ctx = context.Background()
			}
			return &Stream[T]{svc: s, ctx: ctx, clone: rq.clone, replaying: true, replay: pre.results.([]T)}, nil
		}
		s.resultMisses.Add(1)
	}
	return rq.open(ctx, 0, false)
}

// joinBatch runs (or serves from the prefix cache) a top-k join by draining
// the stream openJoin exposes. A budget that expires mid-join is a
// truncation, not a failure: the drained prefix (empty when the budget was
// spent before the join could start) is correct as far as it goes, so it is
// returned alongside ErrBudgetExceeded instead of discarding paid-for work.
func joinBatch[T any](s *Service, ctx context.Context, graphName string, spec joinSpec[T], k int, query Query) ([]T, error) {
	if err := s.enter(spec.class()); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("service: k must be positive, got %d", k)
	}
	if st, claimed, err := spec.route(ctx, s, graphName, query); claimed {
		// A routed join bypasses the local result cache: the shards apply
		// their own admission and budgets, and the corner bound already
		// stops their streams at the demanded k.
		if err != nil {
			return nil, err
		}
		defer st.Stop()
		return st.NextK(k)
	}
	rq, err := resolveJoin(s, graphName, spec, query)
	if err != nil {
		return nil, err
	}
	if pre, ok := rq.sess.results.get(rq.key, k); ok {
		s.resultHits.Add(1)
		return rq.served(pre, k), nil
	}
	if rq.key != "" {
		s.resultMisses.Add(1)
	}
	st, err := rq.open(ctx, k, true)
	if err != nil {
		return nil, err
	}
	defer st.Stop()
	res, err := st.NextK(k)
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		return nil, err
	}
	return res, err
}

// OpenJoin2 opens a streaming top-pairs request on the named graph; see
// openJoin.
func (s *Service) OpenJoin2(ctx context.Context, graphName string, p, q SetRef, query Query) (*Join2Stream, error) {
	return openJoin(s, ctx, graphName, pairSpec{p, q}, query)
}

// Join2 runs (or serves from the prefix cache) a top-k 2-way join from p to
// q; dhtjoin.TopKPairs is this call on an Ephemeral service. When the
// deadline budget expires, the prefix drained so far is returned alongside
// ErrBudgetExceeded.
func (s *Service) Join2(ctx context.Context, graphName string, p, q SetRef, k int, query Query) ([]join2.Result, error) {
	return joinBatch(s, ctx, graphName, pairSpec{p, q}, k, query)
}

// OpenJoinN opens a streaming n-way join request over the query graph
// described by sets and edges (edges index into sets); see openJoin.
func (s *Service) OpenJoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, query Query) (*JoinNStream, error) {
	return openJoin(s, ctx, graphName, tupleSpec{sets, edges}, query)
}

// JoinN runs (or serves from the prefix cache) a top-k n-way join
// (dhtjoin.TopK is this call on an Ephemeral service); budget expiry as in
// Join2.
func (s *Service) JoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) ([]core.Answer, error) {
	return joinBatch(s, ctx, graphName, tupleSpec{sets, edges}, k, query)
}

// explainJoin resolves a request and returns the plan its execution would
// run — the chosen algorithm, every candidate's cost estimate, and the
// stats snapshot — without executing anything (a dry run: no admission
// token, no engines). k sizes the demand a pair plan is priced for; k <= 0
// and every tuple plan are priced for the resolved per-edge budget, as the
// streaming entry points do.
func explainJoin[T any](s *Service, graphName string, spec joinSpec[T], k int, query Query) (*plan.Plan, error) {
	rq, err := resolveJoin(s, graphName, spec, query)
	if err != nil {
		return nil, err
	}
	return rq.plan(k)
}

// ExplainJoin2 is the dry run of a 2-way request; see explainJoin.
func (s *Service) ExplainJoin2(ctx context.Context, graphName string, p, q SetRef, k int, query Query) (*plan.Plan, error) {
	return explainJoin(s, graphName, pairSpec{p, q}, k, query)
}

// ExplainJoinN is the dry run of an n-way request; see explainJoin.
func (s *Service) ExplainJoinN(ctx context.Context, graphName string, sets []SetRef, edges [][2]int, k int, query Query) (*plan.Plan, error) {
	return explainJoin(s, graphName, tupleSpec{sets, edges}, k, query)
}

// Score computes the truncated score h_d(u, v) on the graph as loaded;
// dhtjoin.Score is this call on an Ephemeral service. ctx bounds the wait
// for admission.
func (s *Service) Score(ctx context.Context, graphName string, u, v graph.NodeID, query Query) (float64, error) {
	s.scoreReqs.Add(1)
	if err := s.admitGate(); err != nil {
		return 0, err
	}
	res, err := query.Resolve()
	if err != nil {
		return 0, err
	}
	s.recordMeasure(res.Kernel.Name)
	ge, err := s.graphFor(graphName)
	if err != nil {
		return 0, err
	}
	n := ge.g.NumNodes()
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return 0, fmt.Errorf("service: node pair (%d,%d) out of range [0,%d)", u, v, n)
	}
	sess, err := s.sessionFor(ge, res.Params, res.D, res.Kernel.Name)
	if err != nil {
		return 0, err
	}
	g, err := s.adm.acquire(ctx, query.Priority)
	if err != nil {
		return 0, err
	}
	defer s.adm.release(g)
	if !res.Kernel.WalkBased {
		// The one matrix measure (simrank) scores through the shared
		// fixed-point matrix; the session pool holds walk engines it never
		// touches.
		m, err := simrank.SharedMatrix(sess.g)
		if err != nil {
			return 0, err
		}
		return m.Score(u, v), nil
	}
	e := sess.pool.Get()
	defer sess.pool.Put(e)
	return e.ForwardScore(res.Kernel.Walk, u, v, res.D), nil
}
