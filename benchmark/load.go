package main

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed (or failed) request as the generator saw it.
type sample struct {
	idx   int // index into the driven list
	op    opKind
	ok    bool          // transport fine, status 200, complete and not truncated
	start time.Time     // request written (closed loop) — latency origin unless due is set
	due   time.Time     // open loop: when the request was due; zero otherwise
	lag   time.Duration // open loop: how late the generator queued it
	first time.Time
	end   time.Time
	body  []byte // kept only where the oracle or the generation bookkeeping needs it
	err   string
}

// origin is where the sample's latency is measured from: the due time in an
// open loop, the moment the request was written otherwise.
func (s *sample) origin() time.Time {
	if !s.due.IsZero() {
		return s.due
	}
	return s.start
}

func (s *sample) latency() time.Duration { return s.end.Sub(s.origin()) }
func (s *sample) ttfr() time.Duration    { return s.first.Sub(s.origin()) }

var (
	markTruncated = []byte(`"truncated":true`)
	markClamped   = []byte(`"clamped_k"`)
	markDone      = []byte(`"done":true`)
	markError     = []byte(`"error"`)
)

// complete reports whether a 200 response is whole: not cut by a budget or
// by load shedding (no workload asks for either), and, when streamed, ended
// by the terminator line rather than an in-band error.
func complete(r *request, body []byte) bool {
	if bytes.Contains(body, markTruncated) || bytes.Contains(body, markClamped) {
		return false
	}
	if r.stream {
		return bytes.Contains(body, markDone) && !bytes.Contains(body, markError)
	}
	return true
}

// ticket is one unit of work handed to a client.
type ticket struct {
	idx int
	due time.Time
	lag time.Duration
}

// load is a request list aimed at a server.
type load struct {
	addr string
	list []*request
	keep func(idx int, r *request) bool // selects the responses whose body is retained; nil keeps none
	tr   *tracer                        // nil: tracing off
	span string                         // root span name; "" names spans window.<op>
}

// drive runs nconn clients, each on its own connection, over the list until
// pull reports no more work.
func (l *load) drive(nconn int, pull func() (ticket, bool)) ([]sample, error) {
	parts := make([][]sample, nconn)
	errs := make([]error, nconn)
	var wg sync.WaitGroup
	for i := 0; i < nconn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = l.client(pull)
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range parts {
		all = append(all, p...)
	}
	return all, errors.Join(errs...)
}

// client is one connection's loop; it returns an error only when it cannot
// (re)connect, everything else is recorded in the sample.
func (l *load) client(pull func() (ticket, bool)) ([]sample, error) {
	c, err := dial(l.addr)
	if err != nil {
		return nil, err
	}
	defer func() { c.close() }()
	var out []sample
	for {
		t, ok := pull()
		if !ok {
			return out, nil
		}
		r := l.list[t.idx]
		res, err := c.do(r)
		s := sample{idx: t.idx, op: r.op, start: res.start, due: t.due, lag: t.lag, first: res.first, end: res.end}
		switch {
		case err != nil:
			s.err = err.Error()
			s.first, s.end = time.Now(), time.Now()
			out = append(out, s)
			// The connection's framing is lost; redial so one failure is
			// counted once, not for every later request.
			c.close()
			if c, err = dial(l.addr); err != nil {
				return out, err
			}
			continue
		case res.status != 200:
			s.err = "status " + strconv.Itoa(res.status) + ": " + string(bytes.TrimSpace(res.body))
		case !complete(r, res.body):
			s.err = "truncated or incomplete response"
		default:
			s.ok = true
		}
		if l.keep != nil && l.keep(t.idx, r) {
			s.body = bytes.Clone(res.body)
		}
		if l.tr != nil {
			name := l.span
			if name == "" {
				name = "window." + opNames[r.op]
			}
			root := l.tr.add(0, t.idx, name, s.origin(), s.end)
			l.tr.add(root, t.idx, name+".first_result", s.start, s.first)
			l.tr.add(root, t.idx, name+".body", s.first, s.end)
		}
		out = append(out, s)
	}
}

// replay sends every request of list once, in order of pick-up by nconn
// clients (nconn 1 = strictly in list order).
func (l *load) replay(nconn int) ([]sample, error) {
	var next atomic.Int64
	return l.drive(nconn, func() (ticket, bool) {
		i := int(next.Add(1) - 1)
		return ticket{idx: i}, i < len(l.list)
	})
}

// closedLoop keeps `clients` clients busy for dur: each sends its next
// request as soon as the previous one completes. The list wraps if a fast
// server exhausts it.
func (l *load) closedLoop(dur time.Duration) ([]sample, time.Time, error) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	samples, err := l.drive(clients, func() (ticket, bool) {
		if !time.Now().Before(deadline) {
			return ticket{}, false
		}
		return ticket{idx: int((next.Add(1) - 1) % int64(len(l.list)))}, true
	})
	return samples, start, err
}

// openLoop offers list on its schedule regardless of how njoind keeps up:
// a scheduler queues each request at its due time, `clients` connections
// drain the queue, and latency is timed from the due time, so a stall
// charges every request that had to wait behind it.
func (l *load) openLoop() ([]sample, time.Time, error) {
	// Buffered to the whole list so the scheduler never blocks on a busy
	// server: its lateness is then the generator's own, reported as lag.
	queue := make(chan ticket, len(l.list))
	start := time.Now()
	go func() {
		defer close(queue)
		for i, r := range l.list {
			due := start.Add(r.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			queue <- ticket{idx: i, due: due, lag: time.Since(due)}
		}
	}()
	samples, err := l.drive(clients, func() (ticket, bool) {
		t, ok := <-queue
		return t, ok
	})
	for range queue { // a failed dial leaves the scheduler running; let it finish
	}
	return samples, start, err
}
