package service

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/graph"
	"repro/internal/store"
)

// This file is the service side of durability: adopting recovered graphs at
// boot, edge updates that append to the store's WAL before they swap the
// served graph, and the memory-only eviction that a store makes safe.
//
// Everything hangs off one invariant: sessions are keyed by graph pointer
// (sessionKey.g), so replacing a registry entry's *graph.Graph purges every
// derived structure — score memos, result-cache prefixes, plan caches, and
// planner calibrations — exactly when the graph's durable generation moves.
// There is no separate invalidation protocol to get wrong.

// AdoptRecovered registers the graphs the store recovered at startup without
// re-persisting them (their durable state is what they were recovered from).
// Graphs beyond MaxGraphs stay on disk and reload lazily on first use. A
// recovered node set that fails validation against its recovered graph marks
// the segment codec broken, so adoption fails loudly rather than serving it.
func (s *Service) AdoptRecovered(recs []store.Recovered) error {
	for _, rec := range recs {
		byName := make(map[string]*graph.NodeSet, len(rec.Sets))
		for _, set := range rec.Sets {
			if err := set.Validate(rec.Graph); err != nil {
				return fmt.Errorf("service: recovered graph %q: %w", rec.Name, err)
			}
			byName[set.Name] = set
		}
		s.mu.Lock()
		if _, ok := s.graphs[rec.Name]; !ok && len(s.graphs) >= s.cfg.MaxGraphs {
			s.mu.Unlock()
			continue
		}
		s.graphs[rec.Name] = &graphEntry{g: rec.Graph, sets: byName, gen: rec.Gen}
		s.touchGraphLocked(rec.Name)
		s.mu.Unlock()
	}
	return nil
}

// UpdateEdges applies one atomic batch of edge additions and deletions to
// the named graph and returns its new description. With a store attached the
// batch is appended to the graph's WAL and fsynced before the served graph
// changes — a batch that cannot be made durable fails without changing what
// is served. The new graph replaces the registry entry, invalidating every
// session derived from the old one (see the file comment). An add naming a
// node id at or past n + 2·len(adds) fails with ErrNodeLimit.
func (s *Service) UpdateEdges(name string, adds []graph.Edge, dels [][2]graph.NodeID) (GraphInfo, error) {
	if err := s.admitGate(); err != nil {
		return GraphInfo{}, err
	}
	if len(adds) == 0 && len(dels) == 0 {
		return GraphInfo{}, fmt.Errorf("service: empty edge update")
	}
	// One edit at a time: updates are rare next to the joins they invalidate,
	// and serializing the read-modify-write against the WAL append keeps the
	// generation sequence trivially linear.
	s.editMu.Lock()
	defer s.editMu.Unlock()
	ge, err := s.graphFor(name)
	if err != nil {
		return GraphInfo{}, err
	}
	// An add may grow the graph, by at most the new nodes it names: without
	// the bound one id near 2³¹ would size every later join's engines. The
	// check lives here, not in ApplyEdits, so WAL replay still applies every
	// committed record.
	limit := ge.g.NumNodes() + 2*len(adds)
	for _, e := range adds {
		if id := max(e.U, e.V); int(id) >= limit {
			return GraphInfo{}, fmt.Errorf("%w: add (%d,%d) names node %d; graph %q has %d nodes, which %d adds may grow to at most %d",
				ErrNodeLimit, e.U, e.V, id, name, ge.g.NumNodes(), len(adds), limit)
		}
	}
	next, err := graph.ApplyEdits(ge.g, adds, dels)
	if err != nil {
		return GraphInfo{}, err
	}
	// Node sets survive edits unchanged: ApplyEdits only grows the node-id
	// space, so every recovered or declared set stays valid.
	sets := make([]*graph.NodeSet, 0, len(ge.sets))
	for _, set := range ge.sets {
		sets = append(sets, set)
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].Name < sets[j].Name })
	gen := ge.gen + 1
	if s.store != nil {
		if gen, _, err = s.store.AppendEdits(name, adds, dels, next, sets); err != nil {
			return GraphInfo{}, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.graphs[name]; ok {
		s.purgeSessionsLocked(old.g)
		// Reclaim the purged generation (its graph, engine pools, memo
		// columns) now rather than at the pacer's next cycle: an edit makes
		// little garbage of its own, so nothing else would trigger one soon.
		// The write does not wait for it, and it runs outside s.mu.
		go runtime.GC()
	}
	s.graphs[name] = &graphEntry{g: next, sets: ge.sets, gen: gen}
	s.touchGraphLocked(name)
	s.edgeUpdates.Add(1)
	info := GraphInfo{Name: name, Nodes: next.NumNodes(), Edges: next.NumEdges(), Generation: gen}
	for _, set := range sets {
		info.Sets = append(info.Sets, set.Name)
	}
	return info, nil
}

// reloadGraph brings an evicted-but-persisted graph back into the registry.
// The disk read runs outside the service lock; losing a race against a
// concurrent reload (or an explicit load) of the same name just discards the
// duplicate.
func (s *Service) reloadGraph(name string) (*graphEntry, error) {
	g, sets, gen, err := s.store.Load(name)
	if err != nil {
		return nil, fmt.Errorf("service: reloading %q: %w", name, err)
	}
	byName := make(map[string]*graph.NodeSet, len(sets))
	for _, set := range sets {
		if err := set.Validate(g); err != nil {
			return nil, fmt.Errorf("service: reloading %q: %w", name, err)
		}
		byName[set.Name] = set
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ge, ok := s.graphs[name]; ok {
		s.touchGraphLocked(name)
		return ge, nil
	}
	if len(s.graphs) >= s.cfg.MaxGraphs {
		s.evictGraphLocked(name)
	}
	ge := &graphEntry{g: g, sets: byName, gen: gen}
	s.graphs[name] = ge
	s.touchGraphLocked(name)
	return ge, nil
}

// touchGraphLocked moves name to the MRU position, appending it if absent
// (caller holds s.mu).
func (s *Service) touchGraphLocked(name string) {
	for i, n := range s.graphOrder {
		if n == name {
			copy(s.graphOrder[i:], s.graphOrder[i+1:])
			s.graphOrder[len(s.graphOrder)-1] = name
			return
		}
	}
	s.graphOrder = append(s.graphOrder, name)
}

// removeGraphOrderLocked drops name from the recency order (caller holds
// s.mu).
func (s *Service) removeGraphOrderLocked(name string) {
	for i, n := range s.graphOrder {
		if n == name {
			s.graphOrder = append(s.graphOrder[:i], s.graphOrder[i+1:]...)
			return
		}
	}
}

// evictGraphLocked removes the least recently used resident other than keep
// from memory only — its segments and WAL stay on disk, and graphFor reloads
// it on next use. Only called with a store attached, where every resident is
// persisted by construction (LoadGraph persists before registering, and
// AdoptRecovered's graphs came from disk). Caller holds s.mu.
func (s *Service) evictGraphLocked(keep string) {
	for _, name := range s.graphOrder {
		if name == keep {
			continue
		}
		ge := s.graphs[name]
		delete(s.graphs, name)
		s.removeGraphOrderLocked(name)
		s.purgeSessionsLocked(ge.g)
		return
	}
}
