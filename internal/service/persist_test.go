package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, recs, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh store recovered %d graphs", len(recs))
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func reopenService(t *testing.T, dir string, cfg Config) (*Service, []store.Recovered) {
	t.Helper()
	st, recs, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	svc := New(cfg)
	if err := svc.AdoptRecovered(recs); err != nil {
		t.Fatal(err)
	}
	return svc, recs
}

// TestServiceDurableRestart is the end-to-end durability property at the
// service layer: load, join, edit, join again, tear everything down, recover
// from disk — and the recovered service serves bit-identical results at the
// same generation without any re-PUT.
func TestServiceDurableRestart(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	ctx := context.Background()

	svc := New(Config{Store: openStore(t, dir)})
	if err := svc.LoadGraph("comm", g, sets); err != nil {
		t.Fatal(err)
	}
	adds := []graph.Edge{{U: 0, V: 60, W: 5}, {U: 60, V: 100, W: 2}}
	info, err := svc.UpdateEdges("comm", adds, [][2]graph.NodeID{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 {
		t.Fatalf("generation after load+edit = %d, want 2", info.Generation)
	}
	want, err := svc.Join2(ctx, "comm", SetRef{Name: "C0"}, SetRef{Name: "C1"}, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	wantScore, err := svc.Score(ctx, "comm", 0, 60, Query{})
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store over the same dir, a new service adopting its
	// recovery output. Nothing is re-loaded by hand.
	svc2, recs := reopenService(t, dir, Config{})
	if len(recs) != 1 || recs[0].Name != "comm" || recs[0].Gen != 2 || recs[0].Replayed != 1 {
		t.Fatalf("recovered %+v", recs)
	}
	got, err := svc2.Join2(ctx, "comm", SetRef{Name: "C0"}, SetRef{Name: "C1"}, 10, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(want, got) {
		t.Fatal("post-restart join differs from pre-restart join")
	}
	gotScore, err := svc2.Score(ctx, "comm", 0, 60, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if gotScore != wantScore {
		t.Fatalf("post-restart score = %v, want %v", gotScore, wantScore)
	}
	infos := svc2.Graphs()
	if len(infos) != 1 || infos[0].Generation != 2 || infos[0].Evicted {
		t.Fatalf("Graphs after restart = %+v", infos)
	}
}

func TestUpdateEdgesInvalidatesAndPersists(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	ctx := context.Background()

	svc := New(Config{Store: openStore(t, dir)})
	if err := svc.LoadGraph("comm", g, sets); err != nil {
		t.Fatal(err)
	}
	before, err := svc.Score(ctx, "comm", 0, 1, Query{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm a join session too, so the update has cached state to invalidate.
	if _, err := svc.Join2(ctx, "comm", SetRef{Name: "C0"}, SetRef{Name: "C1"}, 5, Query{}); err != nil {
		t.Fatal(err)
	}

	// A massive direct arc must move the truncated score; serving the cached
	// pre-edit value would mean the session survived the graph swap.
	if _, err := svc.UpdateEdges("comm", []graph.Edge{{U: 0, V: 1, W: 1000}}, nil); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Score(ctx, "comm", 0, 1, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("score did not move after edge boost: before=%v after=%v", before, after)
	}
	// And the post-edit score must equal the from-scratch score on the
	// edited graph — the invalidated caches cannot leak stale columns.
	edited, err := graph.ApplyEdits(g, []graph.Edge{{U: 0, V: 1, W: 1000}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Config{})
	if err := fresh.LoadGraph("comm", edited, sets); err != nil {
		t.Fatal(err)
	}
	ref, err := fresh.Score(ctx, "comm", 0, 1, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if after != ref {
		t.Fatalf("served post-edit score %v != reference %v", after, ref)
	}

	st := svc.Stats()
	if st.EdgeUpdates != 1 {
		t.Fatalf("EdgeUpdates = %d", st.EdgeUpdates)
	}
	if st.Persistence == nil || st.Persistence.WALAppends != 1 {
		t.Fatalf("Persistence = %+v", st.Persistence)
	}
	if st.Generations["comm"] != 2 {
		t.Fatalf("Generations = %v", st.Generations)
	}
}

func TestUpdateEdgesWithoutStore(t *testing.T) {
	g, sets := testGraph(t)
	svc := New(Config{})
	if err := svc.LoadGraph("comm", g, sets); err != nil {
		t.Fatal(err)
	}
	info, err := svc.UpdateEdges("comm", []graph.Edge{{U: 0, V: 2, W: 1}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 {
		t.Fatalf("in-memory generation = %d, want 1", info.Generation)
	}
	if _, err := svc.UpdateEdges("comm", nil, nil); err == nil {
		t.Fatal("empty edge update accepted")
	}
	if _, err := svc.UpdateEdges("missing", []graph.Edge{{U: 0, V: 1, W: 1}}, nil); err == nil {
		t.Fatal("edge update on unknown graph accepted")
	}
	if st := svc.Stats(); st.Persistence != nil || st.Generations != nil {
		t.Fatal("storeless service reported persistence stats")
	}
}

// TestUpdateEdgesNodeLimit: an edit grows the graph by at most one node per
// add endpoint, so the largest id an add may name is n + 2·len(adds) − 1.
// Past it the update is ErrNodeLimit, naming the limit, and neither the
// served graph, its generation nor the WAL moves.
func TestUpdateEdgesNodeLimit(t *testing.T) {
	g, sets := testGraph(t)
	n := graph.NodeID(g.NumNodes()) // 140
	for _, tc := range []struct {
		name  string
		adds  []graph.Edge
		nodes int // 0: rejected with ErrNodeLimit
	}{
		{"existing ids", []graph.Edge{{U: 0, V: n - 1, W: 1}}, 140},
		{"one add, both ends new", []graph.Edge{{U: n, V: n + 1, W: 1}}, 142},
		{"one add, one end at the limit", []graph.Edge{{U: 0, V: n + 2, W: 1}}, 0},
		{"two adds reach further", []graph.Edge{{U: 0, V: 1, W: 1}, {U: n + 3, V: 0, W: 1}}, 144},
		{"two adds past the limit", []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: n + 4, W: 1}}, 0},
		{"the handler-test id", []graph.Edge{{U: 5000000, V: 1, W: 1}}, 0},
		{"the largest id", []graph.Edge{{U: 0, V: 0, W: 1}, {U: math.MaxInt32, V: 0, W: 1}}, 0},
	} {
		svc := New(Config{Store: openStore(t, t.TempDir())})
		if err := svc.LoadGraph("comm", g, sets); err != nil {
			t.Fatal(err)
		}
		info, err := svc.UpdateEdges("comm", tc.adds, nil)
		if tc.nodes > 0 {
			if err != nil || info.Nodes != tc.nodes {
				t.Fatalf("%s: (%+v, %v), want %d nodes", tc.name, info, err, tc.nodes)
			}
			continue
		}
		limit := fmt.Sprintf("at most %d", g.NumNodes()+2*len(tc.adds))
		if !errors.Is(err, ErrNodeLimit) || !strings.Contains(err.Error(), limit) {
			t.Fatalf("%s: error %v, want ErrNodeLimit naming %q", tc.name, err, limit)
		}
		st := svc.Stats()
		if infos := svc.Graphs(); infos[0].Nodes != g.NumNodes() || infos[0].Generation != 1 ||
			st.EdgeUpdates != 0 || st.Persistence.WALAppends != 0 {
			t.Fatalf("%s: rejected edit moved the graph: %+v, %+v", tc.name, infos[0], st.Persistence)
		}
	}
}

// TestEvictionReloadsLazily: with a store attached, MaxGraphs is a residency
// bound, not a capacity limit. The LRU resident is evicted from memory only,
// shows up as Evicted in the listing, and reloads transparently on use.
func TestEvictionReloadsLazily(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	ctx := context.Background()

	svc := New(Config{Store: openStore(t, dir), MaxGraphs: 2})
	for _, name := range []string{"a", "b", "c"} {
		if err := svc.LoadGraph(name, g, sets); err != nil {
			t.Fatalf("load %q: %v", name, err)
		}
	}
	infos := svc.Graphs()
	if len(infos) != 3 {
		t.Fatalf("Graphs lists %d entries, want 3 (evicted included)", len(infos))
	}
	evicted := 0
	for _, info := range infos {
		if info.Evicted {
			evicted++
			if info.Name != "a" {
				t.Fatalf("evicted %q, want the LRU (a)", info.Name)
			}
		}
	}
	if evicted != 1 {
		t.Fatalf("%d graphs evicted, want 1", evicted)
	}

	// Using the evicted graph reloads it from disk; results must match a
	// never-evicted service byte for byte.
	got, err := svc.Join2(ctx, "a", SetRef{Name: "C0"}, SetRef{Name: "C1"}, 8, Query{})
	if err != nil {
		t.Fatalf("join on evicted graph: %v", err)
	}
	ref := New(Config{})
	if err := ref.LoadGraph("a", g, sets); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Join2(ctx, "a", SetRef{Name: "C0"}, SetRef{Name: "C1"}, 8, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResults(want, got) {
		t.Fatal("join over reloaded graph differs from reference")
	}
	// The reload displaced another resident; the registry never exceeds its
	// residency bound but still serves all three names.
	for _, info := range svc.Graphs() {
		if info.Name == "a" && info.Evicted {
			t.Fatal("graph a still marked evicted after use")
		}
	}
}

// TestDropGraphRemovesDurableState: a drop with a store removes disk state,
// so a restart does not resurrect the graph.
func TestDropGraphRemovesDurableState(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)

	svc := New(Config{Store: openStore(t, dir)})
	if err := svc.LoadGraph("comm", g, sets); err != nil {
		t.Fatal(err)
	}
	if ok, err := svc.DropGraph("comm"); !ok || err != nil {
		t.Fatalf("DropGraph = (%v, %v)", ok, err)
	}
	if ok, _ := svc.DropGraph("comm"); ok {
		t.Fatal("second drop found the graph")
	}
	svc2, recs := reopenService(t, dir, Config{})
	if len(recs) != 0 || len(svc2.Graphs()) != 0 {
		t.Fatalf("dropped graph resurrected: %+v", recs)
	}
}

// TestAdoptRecoveredBeyondCapacity: recovery of more graphs than MaxGraphs
// adopts what fits; the rest stay on disk and reload lazily.
func TestAdoptRecoveredBeyondCapacity(t *testing.T) {
	dir := t.TempDir()
	g, sets := testGraph(t)
	svc := New(Config{Store: openStore(t, dir)})
	for _, name := range []string{"a", "b", "c"} {
		if err := svc.LoadGraph(name, g, sets); err != nil {
			t.Fatal(err)
		}
	}

	svc2, recs := reopenService(t, dir, Config{MaxGraphs: 2})
	if len(recs) != 3 {
		t.Fatalf("recovered %d graphs", len(recs))
	}
	infos := svc2.Graphs()
	if len(infos) != 3 {
		t.Fatalf("Graphs lists %d entries", len(infos))
	}
	// All three still serve.
	ctx := context.Background()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := svc2.Join2(ctx, name, SetRef{Name: "C0"}, SetRef{Name: "C1"}, 3, Query{}); err != nil {
			t.Fatalf("join on %q after adoption: %v", name, err)
		}
	}
}
