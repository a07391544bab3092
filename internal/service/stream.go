package service

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/join2"
)

// maxCachedPrefix bounds how much of a drained ranking a stream records
// for publication to the result cache. Without a cap a single exhaustive
// stream over large sets would make the server buffer (and then pin in the
// LRU) the entire O(|P|·|Q|) ranking the client consumed line by line. A
// truncated recording still publishes a valid prefix — it just cannot
// claim the ranking is exhausted.
const maxCachedPrefix = 4096

// Stream streams one join request through the session's shared pool. It
// holds admission tokens and pooled engines until Stop — callers MUST Stop
// (idempotent; draining to exhaustion or a ctx error stops automatically). On Stop the drained prefix (up to maxCachedPrefix
// results) is published to the session's result cache, so a later request
// for any k up to that length is served without a join.
type Stream[T any] struct {
	svc       *Service
	ctx       context.Context
	cancel    context.CancelFunc // releases the budget timer; nil for replayed and routed streams
	sess      *session
	key       string // where Stop publishes; empty for replayed, routed and uncacheable streams
	kind      *resultKind[T]
	st        source[T]
	grant     *grant
	drained   []T  // private deep copies of what was served
	truncated bool // results past maxCachedPrefix were not recorded
	budgetHit bool // the deadline budget cut the ranking short
	exhausted bool
	stopped   bool

	// replaying serves replay, a cached complete ranking, in place of a live
	// join (no engines, no admission tokens, nothing to publish).
	replaying bool
	replay    []T
	pos       int
}

// Join2Stream and JoinNStream are the pair and tuple instantiations.
type (
	Join2Stream = Stream[join2.Result]
	JoinNStream = Stream[core.Answer]
)

// Truncated reports whether the stream's deadline budget expired: everything
// already returned is a correct ranking prefix, but the ranking was cut
// short. Meaningful once Next has returned an error or Stop has run.
func (s *Stream[T]) Truncated() bool { return s.budgetHit }

// Exhausted reports whether the stream ended because the ranking ran out —
// as opposed to a Stop, an error, or a budget cut.
func (s *Stream[T]) Exhausted() bool { return s.exhausted }

// Next returns the next-best result in the caller's id space; ok is false at
// exhaustion (or after Stop). A cancelled ctx stops the stream and returns
// its cause: ErrBudgetExceeded marks a truncated-but-correct prefix, while a
// plain cancel is an aborted request.
func (s *Stream[T]) Next() (T, bool, error) {
	var zero T
	if s.stopped {
		return zero, false, nil
	}
	var v T
	ok := false
	err := context.Cause(s.ctx)
	switch {
	case err != nil:
	case s.replaying:
		if ok = s.pos < len(s.replay); ok {
			// The replay slice is the cache's immutable snapshot.
			v = s.kind.clone(s.replay[s.pos])
			s.pos++
			return v, true, nil
		}
	default:
		v, ok, err = s.safeNext()
	}
	if err != nil || !ok {
		// A budget expiry is counted as a truncation once per stream.
		if errors.Is(err, ErrBudgetExceeded) && !s.budgetHit {
			s.budgetHit = true
			s.svc.budgetTruncs.Add(1)
		}
		s.exhausted = err == nil
		s.Stop()
		return zero, false, err
	}
	if s.sess != nil && s.sess.rl != nil {
		v = s.kind.toOld(s.sess.rl, v)
	}
	if s.key == "" {
		return v, true, nil // nowhere to publish: nothing to record
	}
	// The caller owns what it is handed, so the drained prefix keeps its own
	// deep copy — a caller mutating a served tuple before Stop must not
	// poison what Stop publishes to the result cache.
	if len(s.drained) < maxCachedPrefix {
		s.drained = append(s.drained, s.kind.clone(v))
	} else {
		s.truncated = true
	}
	return v, true, nil
}

// safeNext pulls from the underlying stream, converting a panic into an
// error so a crashing joiner still flows into Stop (engines released,
// admission returned) instead of unwinding through the caller.
func (s *Stream[T]) safeNext() (v T, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.svc.notePanic()
			var zero T
			v, ok, err = zero, false, fmt.Errorf("service: panic in join stream: %v", p)
		}
	}()
	return s.st.Next()
}

// NextK pulls up to k further results (fewer at exhaustion; on error the
// results drained before it are returned alongside).
func (s *Stream[T]) NextK(k int) ([]T, error) {
	return join2.Drain(k, s.Next)
}

// Stop releases the stream's engines and admission tokens and publishes the
// drained prefix to the result cache. Idempotent.
func (s *Stream[T]) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.st != nil {
		s.st.Release()
	}
	s.svc.adm.release(s.grant)
	s.grant = nil
	if s.cancel != nil {
		s.cancel()
	}
	if s.key != "" && (len(s.drained) > 0 || s.exhausted) {
		// A truncated recording is still a valid prefix, but it is not the
		// complete ranking even if the stream ran to exhaustion.
		s.sess.results.put(s.key, prefix{results: s.drained, n: len(s.drained), exhausted: s.exhausted && !s.truncated})
	}
}
