package core

import (
	"fmt"
	"sort"

	"repro/internal/dht"
	"repro/internal/graph"
	"repro/internal/join2"
	"repro/internal/simrank"
)

// TwoWayKind selects which 2-way join algorithm an n-way operator uses for
// its per-edge joins.
type TwoWayKind int

const (
	// TwoWayFBJ is the forward basic join — the paper's choice for AP (its
	// pruning-free all-pairs workload gains nothing from smarter joins).
	TwoWayFBJ TwoWayKind = iota
	// TwoWayBBJ is the backward basic join.
	TwoWayBBJ
	// TwoWayFIDJ is the forward iterative deepening join.
	TwoWayFIDJ
	// TwoWayBIDJX is B-IDJ with the X⁺ₗ bound.
	TwoWayBIDJX
	// TwoWayBIDJY is B-IDJ with the Y⁺ₗ bound — the paper's choice for PJ.
	TwoWayBIDJY
	// TwoWaySimRank is the SR-SCAN joiner: per-edge scores come from the
	// SimRank fixed-point matrix instead of walks. Selected only by the
	// measure-aware planner (SR-AP); the walk operators never use it.
	TwoWaySimRank
)

// String names the kind as in the paper.
func (t TwoWayKind) String() string {
	switch t {
	case TwoWayFBJ:
		return "F-BJ"
	case TwoWayBBJ:
		return "B-BJ"
	case TwoWayFIDJ:
		return "F-IDJ"
	case TwoWayBIDJX:
		return "B-IDJ-X"
	case TwoWayBIDJY:
		return "B-IDJ-Y"
	case TwoWaySimRank:
		return "SR-SCAN"
	}
	return fmt.Sprintf("TwoWayKind(%d)", int(t))
}

// newJoiner builds the selected 2-way joiner for one query edge.
func (t TwoWayKind) newJoiner(cfg join2.Config) (join2.Joiner, error) {
	switch t {
	case TwoWayFBJ:
		return join2.NewFBJ(cfg)
	case TwoWayBBJ:
		return join2.NewBBJ(cfg)
	case TwoWayFIDJ:
		return join2.NewFIDJ(cfg)
	case TwoWayBIDJX:
		return join2.NewBIDJX(cfg)
	case TwoWayBIDJY:
		return join2.NewBIDJY(cfg)
	case TwoWaySimRank:
		return simrank.NewJoiner(cfg)
	}
	return nil, fmt.Errorf("core: unknown two-way kind %d", int(t))
}

// edgeConfig derives the 2-way join config for one query edge. counters,
// when non-nil, aggregates the edge's engine work (shared across edges).
// The spec's caller-owned pool is threaded through so every edge join draws
// on the same shared engines.
func edgeConfig(spec *Spec, e QEdge, counters *dht.Counters) join2.Config {
	return join2.Config{
		Graph:    spec.Graph,
		Params:   spec.Params,
		D:        spec.D,
		P:        spec.Query.Set(e.From).Nodes(),
		Q:        spec.Query.Set(e.To).Nodes(),
		Measure:  spec.Measure,
		Counters: counters,
		Pool:     spec.Pool,
		Cancel:   spec.Cancel,
	}
}

// AP is the All Pairs baseline (§III-B): it scores *every* node pair of
// every query edge (Σ |R_i|·|R_j| DHT evaluations), sorts the per-edge
// lists, and rank-joins them with PBRJ. Far fewer DHT computations than NL,
// but still wasteful: under the paper's workloads under 1% of these pairs
// ever contribute to the top-k answers.
type AP struct {
	spec   Spec
	twoWay TwoWayKind
	Stats  RunStats
}

// NewAP validates the spec and returns the algorithm using F-BJ for the
// per-edge joins, as in the paper's experiments.
func NewAP(spec Spec) (*AP, error) {
	return NewAPWith(spec, TwoWayFBJ)
}

// NewAPWith selects the per-edge 2-way join algorithm.
func NewAPWith(spec Spec, kind TwoWayKind) (*AP, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &AP{spec: spec, twoWay: kind}, nil
}

// Name implements Algorithm.
func (a *AP) Name() string {
	if a.twoWay == TwoWaySimRank {
		return "SR-AP"
	}
	return "AP"
}

// Stream opens the rank-ordered answer stream over fully materialized
// per-edge lists (every pair of every edge is scored up front — AP's
// defining cost; only the PBRJ drive itself is incremental). The caller
// must Release the stream.
func (a *AP) Stream() (TupleStream, error) {
	a.Stats = RunStats{}
	ctrs := a.spec.runCounters()
	srcs, err := buildSources(&a.spec, ctrs, a.twoWay == TwoWayBIDJY, func(cfg join2.Config) (edgeSource, error) {
		j, err := a.twoWay.newJoiner(cfg)
		if err != nil {
			return nil, err
		}
		list, err := j.TopK(cfg.MaxPairs())
		if r, ok := j.(interface{ Release() }); ok {
			r.Release() // the list is materialized; pooled engines go back now
		}
		if err != nil {
			return nil, err
		}
		return &listSource{list: list}, nil
	})
	if err != nil {
		return nil, err
	}
	return newPBRJStream(&a.spec, srcs, &a.Stats, ctrs, false), nil
}

// Run implements Algorithm by draining the stream to k.
func (a *AP) Run() ([]Answer, error) {
	st, err := a.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Release()
	return drainTuples(st, a.spec.clampK())
}

// bruteForceJoin recomputes the join exactly from fully materialized edge
// lists by explicit enumeration — shared by tests as the reference answer.
// It returns all candidate answers sorted by descending score (capped at k).
func bruteForceJoin(spec *Spec, k int) ([]Answer, error) {
	edges := spec.Query.Edges()
	scoreOf := make([]map[join2.Pair]float64, len(edges))
	for ei, e := range edges {
		cfg := edgeConfig(spec, e, nil)
		j, err := join2.NewBBJ(cfg)
		if err != nil {
			return nil, err
		}
		list, err := j.TopK(cfg.MaxPairs())
		if err != nil {
			return nil, err
		}
		m := make(map[join2.Pair]float64, len(list))
		for _, r := range list {
			m[r.Pair] = r.Score
		}
		scoreOf[ei] = m
	}
	q := spec.Query
	n := q.NumSets()
	var all []Answer
	idx := make([]int, n)
	tuple := make([]graph.NodeID, n)
	es := make([]float64, len(edges))
	for {
		for i := 0; i < n; i++ {
			tuple[i] = q.Set(i).Nodes()[idx[i]]
		}
		if spec.keepTuple(tuple) {
			for ei, qe := range edges {
				es[ei] = scoreOf[ei][join2.Pair{P: tuple[qe.From], Q: tuple[qe.To]}]
			}
			cp := make([]graph.NodeID, n)
			copy(cp, tuple)
			all = append(all, Answer{Nodes: cp, Score: spec.Agg.Combine(es)})
		}

		pos := n - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < q.Set(pos).Len() {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			break
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	if k < len(all) {
		all = all[:k]
	}
	return all, nil
}
