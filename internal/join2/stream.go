package join2

// This file inverts the joiners' control flow: instead of a run-to-k loop,
// a Stream hands out the ranking one pair at a time, in exactly the order a
// one-shot TopK would return it. Two strategies exist, mirroring the PJ /
// PJ-i split of §VI-D:
//
//   - NewIncrementalStream wraps the B-IDJ bound state (Incremental): the
//     initial top-m join fills the F table, after which each pull refines
//     only the pairs contending for the next rank — the paper's incremental
//     deepening, now exposed as a resumable step function. F orders equal
//     upper bounds by the canonical pair key, so pulls past the initial
//     batch continue the one-shot ranking tie for tie.
//
//   - NewRejoinStream wraps any Joiner by re-running it with a growing
//     budget whenever the drained prefix is exhausted. The canonical pair
//     tie key guarantees every top-m selection is a prefix of the
//     top-(m+1) selection, which is what makes the re-join transparent.
//
// Both satisfy the prefix invariant the facade's streaming API is built on:
// for every m up to |P|·|Q|, the first m results of a stream are
// bit-identical (same pairs, same float64 scores, same order — score
// descending, TieKey ascending) to the one-shot top-m of the same config.

// Stream pulls the rank-ordered pairs of a 2-way join one at a time.
// Streams are single-goroutine, like the joiners and engines they wrap.
type Stream interface {
	// Next returns the next-best pair with its exact truncated score;
	// ok is false once the candidate space |P|·|Q| is exhausted.
	Next() (Result, bool, error)
	// Release returns every pooled engine the stream holds (Config.Pool);
	// it is idempotent, and a no-op without a caller pool. Callers that
	// stop early MUST call Release, or the pool leaks checked-out engines.
	Release()
}

// Primer is implemented by streams whose initial batch can be computed
// eagerly, before the first Next. The n-way operators prime their per-edge
// streams concurrently (the initial top-m joins dominate edge cost and are
// independent across edges); callers that skip Prime simply pay the same
// work on the first Next.
type Primer interface {
	// Prime runs the stream's initial batch. Calling it more than once, or
	// after Next, is a no-op.
	Prime() error
}

// StreamSpec tunes a stream constructor.
type StreamSpec struct {
	// Initial is the size of the first batch: the top-m join run before the
	// stream switches to per-pull production. Values below 1 select 1.
	// Larger values front-load work (better throughput when the caller is
	// known to want many results); smaller values minimize time to first
	// result.
	Initial int

	// Grow picks the next re-join budget from the current one for
	// NewRejoinStream: nil selects the +1 schedule of the paper's PJ
	// ("simply running a top-(m+1) join"). NewNamedStream overrides nil with
	// a doubling schedule, which amortizes re-joins to O(log) of the drained
	// length. Ignored by NewIncrementalStream.
	Grow func(current int) int

	// Refetches, when non-nil, is incremented once per pull that had to
	// compute past the initial batch — the n-way RunStats counter.
	Refetches *int64
}

// initial resolves the first-batch budget.
func (s *StreamSpec) initial() int {
	if s.Initial < 1 {
		return 1
	}
	return s.Initial
}

// NewIncrementalStream opens a stream over cfg backed by the B-IDJ bound
// state: the paper's PJ-i production path. The initial batch runs B-IDJ with
// the given bound variant while recording every walked column's bounds; pulls
// past it refine only contending pairs (§VI-D). The initial batch checks the
// engines out and returns the batch engine; the first pull that walks a
// target to full depth checks one out again, and from then on the stream
// holds both engines until Release.
func NewIncrementalStream(cfg Config, variant BoundVariant, spec StreamSpec) (Stream, error) {
	inc, err := NewIncremental(cfg, variant)
	if err != nil {
		return nil, err
	}
	return &incStream{inc: inc, initial: spec.initial(), refetches: spec.Refetches}, nil
}

// incStream adapts Incremental's Run/Next pair to the Stream interface.
type incStream struct {
	inc       *Incremental
	initial   int
	list      []Result
	pos       int
	refetches *int64
}

// Prime runs the initial join once; a failed one stays failed (the join
// state keeps the error), so every later Prime and Next repeats it.
func (s *incStream) Prime() error {
	if !s.inc.started {
		s.list, _ = s.inc.Run(s.initial)
	}
	return s.inc.err
}

func (s *incStream) Next() (Result, bool, error) {
	if err := s.Prime(); err != nil {
		return Result{}, false, err
	}
	if s.pos < len(s.list) {
		r := s.list[s.pos]
		s.pos++
		return r, true, nil
	}
	if s.refetches != nil {
		*s.refetches++
	}
	return s.inc.Next()
}

func (s *incStream) Release() { s.inc.Release() }

// NewRejoinStream opens a stream over any joiner by re-running TopK with a
// growing budget: the PJ production path ("simply running a top-(m+1)
// join"), generalized with a pluggable growth schedule. Correctness rests on
// the prefix invariant of the canonical tie key: re-running top-(m') for
// m' > m reproduces the first m results bit-identically, so the stream only
// ever exposes new suffix entries.
func NewRejoinStream(j Joiner, spec StreamSpec) (Stream, error) {
	mp := 0
	if b, ok := j.(interface{ MaxPairs() int }); ok {
		mp = b.MaxPairs()
	}
	grow := spec.Grow
	if grow == nil {
		grow = func(n int) int { return n + 1 }
	}
	return &rejoinStream{j: j, maxPairs: mp, budget: spec.initial(), grow: grow, refetches: spec.Refetches}, nil
}

// growDouble is NewNamedStream's budget schedule: each re-join doubles the
// drained length, so draining r results costs O(log r) re-joins.
func growDouble(n int) int {
	if n < 1 {
		return 1
	}
	return 2 * n
}

// rejoinStream re-runs a joiner with a growing budget.
type rejoinStream struct {
	j         Joiner
	maxPairs  int
	budget    int
	grow      func(int) int
	list      []Result
	pos       int
	started   bool
	err       error // a failed initial join: every later Prime and Next returns it
	refetches *int64
}

// Prime runs the initial join once; a failed one stays failed, as for the
// incremental stream.
func (s *rejoinStream) Prime() error {
	if s.started {
		return s.err
	}
	s.started = true
	k := s.budget
	if s.maxPairs > 0 && k > s.maxPairs {
		k = s.maxPairs
	}
	s.list, s.err = s.j.TopK(k)
	return s.err
}

func (s *rejoinStream) Next() (Result, bool, error) {
	if err := s.Prime(); err != nil {
		return Result{}, false, err
	}
	if s.pos < len(s.list) {
		r := s.list[s.pos]
		s.pos++
		return r, true, nil
	}
	if s.maxPairs > 0 && len(s.list) >= s.maxPairs {
		return Result{}, false, nil
	}
	// The drained prefix is spent; re-join with a larger budget. A TopK that
	// comes back no longer than the prefix means the space is exhausted
	// (fewer than k results exist).
	next := s.grow(len(s.list))
	if next <= len(s.list) {
		next = len(s.list) + 1
	}
	if s.maxPairs > 0 && next > s.maxPairs {
		next = s.maxPairs
	}
	if s.refetches != nil {
		*s.refetches++
	}
	list, err := s.j.TopK(next)
	if err != nil {
		return Result{}, false, err
	}
	s.list = list
	if s.pos >= len(s.list) {
		return Result{}, false, nil
	}
	r := s.list[s.pos]
	s.pos++
	return r, true, nil
}

func (s *rejoinStream) Release() {
	if r, ok := s.j.(interface{ Release() }); ok {
		r.Release()
	}
}

// MaxPairs reports the joiner's candidate-space size |P|·|Q|, letting the
// re-join stream detect exhaustion without a final no-op re-join.
func (b *BIDJ) MaxPairs() int { return b.cfg.MaxPairs() }

// MaxPairs reports the joiner's candidate-space size |P|·|Q|.
func (b *BBJ) MaxPairs() int { return b.cfg.MaxPairs() }

// MaxPairs reports the joiner's candidate-space size |P|·|Q|.
func (f *FBJ) MaxPairs() int { return f.cfg.MaxPairs() }

// MaxPairs reports the joiner's candidate-space size |P|·|Q|.
func (f *FIDJ) MaxPairs() int { return f.cfg.MaxPairs() }

// Drain pulls up to k elements from a Stream-shaped pull function,
// stopping early at exhaustion. On error the elements drained so far are
// returned alongside it — callers that must not expose partial results
// discard them. This is the one run-to-k loop every layer (core's batch
// Run, the service and facade NextK pagers) shares.
func Drain[T any](k int, next func() (T, bool, error)) ([]T, error) {
	out := make([]T, 0, min(k, 64))
	for len(out) < k {
		v, ok, err := next()
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out, nil
}
