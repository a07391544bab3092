package service

import (
	"context"
	"slices"
	"sync"
)

// Priority classes for admission. Interactive is the zero value, so untagged
// requests get the low-latency class.
const (
	classInteractive = 0
	classBatch       = 1
	numClasses       = 2
)

// classWeights drives the weighted-fair scheduler: for every classWeights[c]
// grants a class receives, the other classes advance proportionally less
// virtual time, so interactive traffic gets ~3× the grant rate of batch when
// both queues are non-empty — but batch is never starved.
var classWeights = [numClasses]int64{classInteractive: 3, classBatch: 1}

// maxQueued bounds the admission queue: once this many requests wait, a
// further acquire fails fast with ErrQuotaExceeded (HTTP 429) instead of
// adding latency to every request behind it.
const maxQueued = 32

// admission is the per-request admission controller: a counting grant of
// tokens with a fixed total and one bounded queue of waiters in two priority
// classes. Every running request holds exactly one token and runs its join on
// one goroutine, so at most `total` joins are in flight across all concurrent
// requests instead of oversubscribing GOMAXPROCS (admission never changes a
// result, so it is invisible in the responses).
//
// A request never waits while holding its token, so admission cannot
// deadlock. Waiters are FIFO within a class; across classes the scheduler
// picks by weighted virtual time (classWeights). schedule hands out every
// free token while anyone waits, so a free token means an empty queue.
type admission struct {
	mu         sync.Mutex
	free       int
	total      int
	maxWaiting int

	queues [numClasses][]*waiter
	vtime  [numClasses]int64 // grants × (Π weights / weight[c]), for fair pick

	rejected int64 // ErrQuotaExceeded count (stats)
}

// waiter is one blocked acquire. grant sends are buffered so the scheduler
// (holding the lock) never blocks on a waiter that is concurrently
// cancelling.
type waiter struct {
	class int
	ch    chan struct{} // receives the grant, exactly once
}

// grant is the handle a successful acquire returns; release returns its
// token and wakes the next waiter.
type grant struct {
	released bool
}

// newAdmission returns a controller of total tokens whose queue holds at
// most maxWaiting waiters (the service passes maxQueued).
func newAdmission(total, maxWaiting int) *admission {
	if total < 1 {
		total = 1
	}
	return &admission{free: total, total: total, maxWaiting: maxWaiting}
}

// acquire blocks until the request is granted a token or ctx is done. It
// returns ErrQuotaExceeded immediately when the queue is full. class must be
// one of the known classes (Query.Resolve rejects any other); a nil ctx
// never cancels.
func (a *admission) acquire(ctx context.Context, class int) (*grant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.vtime[class] += vtStep(class)
		a.mu.Unlock()
		return &grant{}, nil
	}
	if a.queued() >= a.maxWaiting {
		a.rejected++
		a.mu.Unlock()
		return nil, ErrQuotaExceeded
	}
	w := &waiter{class: class, ch: make(chan struct{}, 1)}
	a.queues[class] = append(a.queues[class], w)
	a.mu.Unlock()

	select {
	case <-w.ch:
		return &grant{}, nil
	case <-ctx.Done():
		a.mu.Lock()
		if i := slices.Index(a.queues[w.class], w); i >= 0 {
			a.queues[w.class] = slices.Delete(a.queues[w.class], i, i+1)
			a.mu.Unlock()
			return nil, ctx.Err()
		}
		a.mu.Unlock()
		// A grant raced the cancel: the scheduler already dequeued us and
		// buffered the grant. Take it and give the token straight back.
		<-w.ch
		a.release(&grant{})
		return nil, ctx.Err()
	}
}

// release returns a grant's token and lets the scheduler hand it out. A
// second release of the same grant, and a nil grant, are no-ops.
func (a *admission) release(g *grant) {
	if g == nil || g.released {
		return
	}
	a.mu.Lock()
	a.free++
	g.released = true
	a.schedule()
	a.mu.Unlock()
}

// vtStep is the virtual-time increment for one grant of class c: classes with
// larger weights advance slower, so they win the min-vtime pick more often.
func vtStep(c int) int64 {
	prod := int64(1)
	for _, w := range classWeights {
		prod *= w
	}
	return prod / classWeights[c]
}

// schedule hands free tokens to waiters: the head of the non-empty class
// with the smallest weighted virtual time (ties to the lower class index,
// i.e. interactive). Called with a.mu held.
func (a *admission) schedule() {
	for a.free > 0 {
		best := -1
		for c := range numClasses {
			if len(a.queues[c]) > 0 && (best < 0 || a.vtime[c] < a.vtime[best]) {
				best = c
			}
		}
		if best < 0 {
			return
		}
		w := a.queues[best][0]
		a.queues[best] = slices.Delete(a.queues[best], 0, 1)
		a.free--
		a.vtime[best] += vtStep(best)
		w.ch <- struct{}{} // buffered; never blocks
	}
}

// queued is the number of waiters, all classes. Called with a.mu held.
func (a *admission) queued() int {
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// snapshot returns the gauges the stats endpoint reads.
func (a *admission) snapshot() (free, waiting int, rejected int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free, a.queued(), a.rejected
}
