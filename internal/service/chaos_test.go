package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/join2"
)

// chaosAcceptable reports whether a stream failure is one of the outcomes the
// chaos harness deliberately provokes: an injected fault, an expired deadline
// budget, a queue-full rejection, a cancelled request, or a recovered panic.
// Anything else is a real bug.
func chaosAcceptable(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrQuotaExceeded) ||
		errors.Is(err, context.Canceled) ||
		strings.Contains(err.Error(), "panic")
}

// TestChaosStreams is the chaos suite's core: at least 200 concurrent
// streams — 2-way and n-way, across both priority classes, some with
// tiny deadline budgets, some cancelled mid-stream — against a service whose
// fault injector fires errors, latency, and panics at engine checkout and
// walk-round granularity. Whatever a stream manages to produce before its
// fate must be bit-identical to the reference ranking prefix, and when the
// dust settles nothing may be leaked: zero outstanding engines, all
// admission tokens free, no waiters.
func TestChaosStreams(t *testing.T) {
	g, sets := testGraph(t)

	inj := fault.New(42)
	inj.Add(fault.Checkout, fault.Rule{Every: 11, Err: errors.New("checkout refused")})
	inj.Add(fault.WalkRound, fault.Rule{Every: 97, Err: errors.New("walk failed")})
	inj.Add(fault.WalkRound, fault.Rule{Every: 211, Panic: true})
	inj.Add(fault.WalkRound, fault.Rule{Every: 13, Delay: 100 * time.Microsecond})

	const maxConc = 8
	svc := New(Config{MaxConcurrency: maxConc, Fault: inj})
	// A 160-waiter queue, so most of the streams below queue and run rather
	// than bounce off the default bound of 32; some are still rejected.
	svc.adm = newAdmission(maxConc, 160)
	if err := svc.LoadGraph("g", g, sets); err != nil {
		t.Fatal(err)
	}

	// Reference prefixes, computed fault-free outside the service.
	const pullPairs, pullAnswers = 25, 10
	combos := [][2]int{{0, 1}, {0, 2}, {1, 2}}
	pairRefs := make([][]join2.Result, len(combos))
	for ci, c := range combos {
		pairRefs[ci] = refJoin2(t, g, sets[c[0]].Nodes(), sets[c[1]].Nodes(), pullPairs)
	}
	answerRef := refJoinN(t, g, sets, pullAnswers)

	const streams = 240
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var query Query
			if i%3 == 0 {
				query.Priority = PriorityBatch
			}
			if i%9 == 0 {
				query.Budget = time.Duration(1+i%4) * time.Millisecond
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			kind := i % 4
			if kind < 3 { // three distinct 2-way signatures
				c := combos[kind]
				p, q := SetRef{Name: sets[c[0]].Name}, SetRef{Name: sets[c[1]].Name}
				st, err := svc.OpenJoin2(ctx, "g", p, q, query)
				if err != nil {
					if !chaosAcceptable(err) {
						t.Errorf("stream %d open: %v", i, err)
					}
					return
				}
				defer st.Stop()
				want := pairRefs[kind]
				for j := 0; j < pullPairs; j++ {
					if i%7 == 2 && j == 3 {
						cancel() // simulate a client disconnect mid-stream
					}
					r, ok, err := st.Next()
					if err != nil {
						if !chaosAcceptable(err) {
							t.Errorf("stream %d pull %d: %v", i, j, err)
						}
						return
					}
					if !ok {
						return
					}
					if j < len(want) && r != want[j] {
						t.Errorf("stream %d rank %d: got %+v want %+v", i, j, r, want[j])
						return
					}
				}
				return
			}

			// n-way chain over all three sets.
			refs := []SetRef{{Name: sets[0].Name}, {Name: sets[1].Name}, {Name: sets[2].Name}}
			edges := [][2]int{{0, 1}, {1, 2}}
			st, err := svc.OpenJoinN(ctx, "g", refs, edges, query)
			if err != nil {
				if !chaosAcceptable(err) {
					t.Errorf("stream %d openN: %v", i, err)
				}
				return
			}
			defer st.Stop()
			for j := 0; j < pullAnswers; j++ {
				if i%7 == 2 && j == 2 {
					cancel()
				}
				a, ok, err := st.Next()
				if err != nil {
					if !chaosAcceptable(err) {
						t.Errorf("stream %d pullN %d: %v", i, j, err)
					}
					return
				}
				if !ok {
					return
				}
				if j < len(answerRef) && !sameAnswers([]core.Answer{a}, answerRef[j:j+1]) {
					t.Errorf("stream %d answer rank %d: got %+v want %+v", i, j, a, answerRef[j])
					return
				}
			}
		}(i)
	}

	// Watchdog: the whole point of the harness is that no combination of
	// faults, cancels, and budgets can deadlock the serving layer.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("chaos streams did not finish within 120s: likely deadlock")
	}

	if n := poolOutstanding(svc); n != 0 {
		t.Fatalf("%d engines outstanding after chaos run", n)
	}
	free, waiting, _ := svc.adm.snapshot()
	if free != maxConc || waiting != 0 {
		t.Fatalf("admission leaked: free=%d want %d, waiting=%d", free, maxConc, waiting)
	}
	if inj.Calls(fault.Checkout) == 0 || inj.Fired(fault.WalkRound) == 0 {
		t.Fatalf("injector never engaged: checkout calls=%d walk fires=%d",
			inj.Calls(fault.Checkout), inj.Fired(fault.WalkRound))
	}
	st := svc.Stats()
	t.Logf("chaos: quota_rejections=%d budget_truncations=%d panics_recovered=%d walk_calls=%d walk_fired=%d",
		st.QuotaRejections, st.BudgetTruncations, st.PanicsRecovered,
		inj.Calls(fault.WalkRound), inj.Fired(fault.WalkRound))
}

// TestChaosHTTPDisconnects drives the full HTTP stack: concurrent NDJSON
// streaming clients that read a few lines and slam the connection shut, plus
// injected response-write failures. Every handler must unwind through its
// deferred Stop: engines and admission tokens all return.
func TestChaosHTTPDisconnects(t *testing.T) {
	g, sets := testGraph(t)
	inj := fault.New(7)
	inj.Add(fault.ResponseWrite, fault.Rule{Every: 9, Err: errors.New("write dropped")})
	svc := New(Config{MaxConcurrency: 8, Fault: inj})
	if err := svc.LoadGraph("test", g, sets); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body, err := json.Marshal(map[string]any{
		"graph":  "test",
		"p":      map[string]any{"set": sets[0].Name},
		"q":      map[string]any{"set": sets[1].Name},
		"k":      0, // stream until exhausted — the client bails long before
		"stream": true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 48
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/join2", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			// Read a few lines, then disconnect without draining.
			sc := bufio.NewScanner(resp.Body)
			for j := 0; j <= i%5 && sc.Scan(); j++ {
			}
			resp.Body.Close()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("HTTP chaos clients did not finish: likely deadlock")
	}

	// The handlers notice the dead connections asynchronously; poll.
	waitFor(t, func() bool { return poolOutstanding(svc) == 0 })
	waitFor(t, func() bool {
		free, waiting, _ := svc.adm.snapshot()
		return free == 8 && waiting == 0
	})
	if inj.Fired(fault.ResponseWrite) == 0 {
		t.Fatal("response-write faults never fired")
	}
}
