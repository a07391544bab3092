package service

import (
	"context"
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

// admission is the per-request admission controller: a counting grant of
// tokens with a fixed total, split across tenants and two priority classes.
// Every running request holds exactly one token and runs its join on one
// goroutine, so at most `total` joins are in flight across all concurrent
// requests instead of oversubscribing GOMAXPROCS (admission never changes a
// result, so it is invisible in the responses).
//
// Per tenant, two caps apply: at most tenantInflight requests of a tenant may
// hold tokens at once (further requests wait even when tokens are free — one
// tenant cannot monopolize the pool), and at most tenantQueue requests may
// wait (beyond that, acquire fails fast with ErrQuotaExceeded so doomed work
// is shed at the door instead of after queueing).
//
// A request never waits while holding its token, so admission cannot
// deadlock. Waiters are FIFO within a class; across classes the scheduler picks by
// weighted virtual time (classWeights). A waiter whose tenant is at its
// in-flight cap is skipped, not dequeued — it keeps its queue position until
// the tenant releases.
type admission struct {
	mu    sync.Mutex
	free  int
	total int

	tenantInflight int // max concurrently admitted requests per tenant
	tenantQueue    int // max queued waiters per tenant

	tenants map[string]*tenantState
	queues  [numClasses][]*waiter
	vtime   [numClasses]int64 // grants × (Π weights / weight[c]), for fair pick
	waiting int               // queued waiters, all classes (gauge)

	rejected int64 // ErrQuotaExceeded count (stats)
}

// tenantState tracks one tenant's admitted and queued request counts; entries
// are dropped as soon as both reach zero, so the map stays bounded by live
// tenants.
type tenantState struct {
	inflight int
	queued   int
}

// waiter is one blocked acquire. grant sends are buffered so the scheduler
// (holding the lock) never blocks on a waiter that is concurrently
// cancelling.
type waiter struct {
	tenant string
	class  int
	ch     chan struct{} // receives the grant, exactly once
}

// grant is the handle a successful acquire returns; release returns its
// token and wakes eligible waiters.
type grant struct {
	tenant   string
	released bool
}

func newAdmission(total, tenantInflight, tenantQueue int) *admission {
	if total < 1 {
		total = 1
	}
	if tenantInflight < 1 || tenantInflight > total {
		tenantInflight = total
	}
	if tenantQueue < 1 {
		tenantQueue = defaultTenantQueue
	}
	return &admission{
		free:           total,
		total:          total,
		tenantInflight: tenantInflight,
		tenantQueue:    tenantQueue,
		tenants:        make(map[string]*tenantState),
	}
}

func (a *admission) tenant(name string) *tenantState {
	t := a.tenants[name]
	if t == nil {
		t = &tenantState{}
		a.tenants[name] = t
	}
	return t
}

func (a *admission) dropIfIdle(name string, t *tenantState) {
	if t.inflight == 0 && t.queued == 0 {
		delete(a.tenants, name)
	}
}

// acquire blocks until the request is granted a token or ctx is done. It
// returns ErrQuotaExceeded immediately when the tenant's waiting queue is
// full. class is clamped to the known classes; a nil ctx never cancels.
func (a *admission) acquire(ctx context.Context, tenant string, class int) (*grant, error) {
	if class < 0 || class >= numClasses {
		class = classInteractive
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	a.mu.Lock()
	t := a.tenant(tenant)
	// Fast path: tokens free, tenant under its cap, and nobody is queued
	// ahead (granting here would jump the line the scheduler maintains).
	if a.free > 0 && a.waiting == 0 && t.inflight < a.tenantInflight {
		a.free--
		t.inflight++
		a.vtime[class] += vtStep(class)
		a.mu.Unlock()
		return &grant{tenant: tenant}, nil
	}
	if t.queued >= a.tenantQueue {
		a.rejected++
		a.dropIfIdle(tenant, t)
		a.mu.Unlock()
		return nil, ErrQuotaExceeded
	}
	w := &waiter{tenant: tenant, class: class, ch: make(chan struct{}, 1)}
	t.queued++
	a.waiting++
	a.queues[class] = append(a.queues[class], w)
	// The new waiter may be immediately eligible (e.g. tokens free but this
	// tenant was at its cap a moment ago, or tokens were just released while
	// the queue was empty in this class).
	a.schedule()
	a.mu.Unlock()

	select {
	case <-w.ch:
		return &grant{tenant: tenant}, nil
	case <-ctx.Done():
		a.mu.Lock()
		if a.unqueue(w) {
			t := a.tenants[w.tenant]
			t.queued--
			a.waiting--
			a.dropIfIdle(w.tenant, t)
			a.mu.Unlock()
			return nil, ctx.Err()
		}
		a.mu.Unlock()
		// A grant raced the cancel: the scheduler already dequeued us and
		// buffered the grant. Take it and give the token straight back.
		<-w.ch
		a.release(&grant{tenant: w.tenant})
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
	if t := a.tenants[g.tenant]; t != nil {
		t.inflight--
		a.dropIfIdle(g.tenant, t)
	}
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

// schedule hands free tokens to eligible waiters. Called with a.mu held.
// Within a class waiters are FIFO, but a waiter whose tenant is at its
// in-flight cap is skipped in place; across classes the smallest weighted
// virtual time wins (ties to the lower class index, i.e. interactive).
func (a *admission) schedule() {
	for a.free > 0 {
		best := -1
		var bestIdx int
		for c := 0; c < numClasses; c++ {
			idx := a.eligible(c)
			if idx < 0 {
				continue
			}
			if best < 0 || a.vtime[c] < a.vtime[best] {
				best, bestIdx = c, idx
			}
		}
		if best < 0 {
			return
		}
		q := a.queues[best]
		w := q[bestIdx]
		a.queues[best] = append(q[:bestIdx], q[bestIdx+1:]...)
		t := a.tenants[w.tenant]
		t.queued--
		t.inflight++
		a.waiting--
		a.free--
		a.vtime[best] += vtStep(best)
		w.ch <- struct{}{} // buffered; never blocks
	}
}

// eligible returns the index of the first waiter in class c whose tenant is
// under its in-flight cap, or -1. Called with a.mu held.
func (a *admission) eligible(c int) int {
	for i, w := range a.queues[c] {
		if a.tenants[w.tenant].inflight < a.tenantInflight {
			return i
		}
	}
	return -1
}

// unqueue removes w from its class queue; false means the scheduler already
// granted it. Called with a.mu held.
func (a *admission) unqueue(w *waiter) bool {
	q := a.queues[w.class]
	for i, x := range q {
		if x == w {
			a.queues[w.class] = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// snapshot returns the gauges the stats endpoint and the load shedder read.
func (a *admission) snapshot() (free, waiting int, rejected int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free, a.waiting, a.rejected
}
