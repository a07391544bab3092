package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request share Request; Parent
// is the ID of the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the trace began
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end run measures with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its ID for children to name as parent.
func (t *tracer) add(parent, request int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return id
}

// traceFile is what trace-<workload>.json holds: the spans, the plan_picks
// census of the timed window, and the ladder as printed.
type traceFile struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	PlanPicks map[string]int64 `json:"plan_picks"`
	Ladder    []ladderRow      `json:"ladder"`
	Spans     []span           `json:"spans"`
}

func (f *traceFile) write(path string) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
