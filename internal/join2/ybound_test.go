package join2

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/graph"
)

// TestYBoundTablesInjected pins the prebuilt-table path an n-way query takes:
// YBoundTables gives one config (a lone walk) or three (one lane walk) tables
// that count one walk each, and a B-IDJ-Y joiner or incremental stream handed
// such a table ranks, prunes and emits exactly as one that builds its own,
// walking one walk less.
func TestYBoundTablesInjected(t *testing.T) {
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{18, 18, 14}, PIn: 0.25, POut: 0.08, Seed: 4, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Graph: g, Params: dht.DHTLambda(0.3), D: 8}
	edge := func(p, q int) Config {
		c := base
		c.P, c.Q = sets[p].Nodes(), sets[q].Nodes()
		return c
	}
	for _, cfgs := range [][]Config{{edge(0, 1)}, {edge(0, 1), edge(1, 2), edge(0, 2)}} {
		var work dht.Counters
		for i := range cfgs {
			cfgs[i].Counters = &work
		}
		if err := YBoundTables(cfgs); err != nil {
			t.Fatal(err)
		}
		if work.Walks != int64(len(cfgs)) {
			t.Fatalf("%d tables counted %d walks", len(cfgs), work.Walks)
		}
		for i, cfg := range cfgs {
			own := cfg
			own.YBound, own.Counters = nil, nil
			want, wantStats, wantWalks := topKWalks(t, own, 12)
			got, gotStats, gotWalks := topKWalks(t, cfg, 12)
			if !slices.Equal(got, want) || !slices.Equal(gotStats, wantStats) || gotWalks != wantWalks-1 {
				t.Fatalf("%d tables, edge %d: injected table gave %v %v in %d walks, own table %v %v in %d",
					len(cfgs), i, got, gotStats, gotWalks, want, wantStats, wantWalks)
			}
			inc, err := NewIncrementalStream(cfg, BoundY, StreamSpec{Initial: 4})
			if err != nil {
				t.Fatal(err)
			}
			drained, err := Drain(12, inc.Next)
			inc.Release()
			if err != nil || !slices.Equal(drained, want) {
				t.Fatalf("%d tables, edge %d: incremental stream with the table drained %v (%v), want %v", len(cfgs), i, drained, err, want)
			}
		}
	}
}

// topKWalks runs a fresh B-IDJ-Y top-k over cfg and returns the ranking, the
// deepening rounds' stats and the walks it took.
func topKWalks(t *testing.T, cfg Config, k int) ([]Result, []IterStat, int64) {
	t.Helper()
	var work dht.Counters
	cfg.Counters = &work
	j, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Release()
	res, err := j.TopK(k)
	if err != nil {
		t.Fatal(err)
	}
	return res, j.Stats, work.Walks
}

// TestYBoundTableMismatchRejected: a table built for another join would prune
// with that join's bounds, so Validate — and with it every joiner and stream
// constructor — refuses a table whose depth, parameters, graph, P or Q (its
// length or its ids) differ from the config's.
func TestYBoundTableMismatchRejected(t *testing.T) {
	good := testConfig(t, 6, 0.3)
	cfgs := []Config{good}
	if err := YBoundTables(cfgs); err != nil {
		t.Fatal(err)
	}
	good.YBound = cfgs[0].YBound
	if err := good.Validate(); err != nil {
		t.Fatalf("the table built for this config was rejected: %v", err)
	}
	other := testConfig(t, 7, 0.3)
	cases := []struct {
		name string
		mut  func(c *Config)
	}{
		{"depth", func(c *Config) { c.D++ }},
		{"params", func(c *Config) { c.Params = dht.DHTLambda(0.4) }},
		{"graph", func(c *Config) { c.Graph = other.Graph }},
		{"P", func(c *Config) { c.P = c.P[1:] }},
		{"Q length", func(c *Config) { c.Q = c.Q[:len(c.Q)-1] }},
		{"Q ids", func(c *Config) {
			c.Q = append([]graph.NodeID{c.P[0]}, c.Q[1:]...)
		}},
		{"Q order", func(c *Config) {
			c.Q = append([]graph.NodeID{c.Q[len(c.Q)-1]}, c.Q[:len(c.Q)-1]...)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "Y⁺ table") {
				t.Fatalf("a table built for another config was answered with %v", err)
			}
			if _, err := NewBIDJY(cfg); err == nil {
				t.Fatal("B-IDJ-Y constructed with another config's table")
			}
			if _, err := NewIncrementalStream(cfg, BoundY, StreamSpec{}); err == nil {
				t.Fatal("incremental stream opened with another config's table")
			}
		})
	}
}
