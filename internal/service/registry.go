package service

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dht"
	"repro/internal/graph"
)

// GraphInfo describes one registry entry.
type GraphInfo struct {
	Name  string   `json:"name"`
	Nodes int      `json:"nodes"`
	Edges int      `json:"edges"`
	Sets  []string `json:"sets"`

	// Generation counts the graph's durable state changes (snapshot base +
	// WAL records with a store attached; a plain in-memory edit counter
	// without one). 0 until the graph is first edited or persisted.
	Generation uint64 `json:"generation,omitempty"`
	// Evicted marks a persisted graph not currently resident in memory; it
	// reloads transparently on first use.
	Evicted bool `json:"evicted,omitempty"`
}

// graphEntry is one registry slot. The locality reorderings a session may
// run on are cached on the immutable graph itself (graph.Graph.Relabeled).
type graphEntry struct {
	g    *graph.Graph
	sets map[string]*graph.NodeSet
	gen  uint64 // durable generation (see GraphInfo.Generation)
}

// sessionKey identifies one shared-resource session. The graph pointer (not
// the registry name) keys it, so reloading a name invalidates naturally and
// two names sharing a graph share a session. The canonical measure name is a
// key dimension: a measure's memoized result prefixes must never serve
// another measure's queries.
type sessionKey struct {
	g       *graph.Graph
	params  dht.Params
	d       int
	relabel graph.RelabelMode
	measure string
}

// session owns the shared per-configuration resources.
type session struct {
	g       *graph.Graph      // possibly relabeled
	rl      *graph.Relabeling // nil when not relabeled
	pool    *dht.EnginePool   // engines + batch engines, recycled across requests
	results *resultLRU        // recent top-k results, original id space
}

// LoadGraph registers g under name with its node sets. Loading an existing
// name replaces it (old sessions die with their graph pointer). With a store
// attached the graph is made durable first — the load fails without changing
// served state if the snapshot cannot be written — and a full registry
// evicts its least recently used resident instead of failing; without one,
// loading a new name into a full registry fails.
func (s *Service) LoadGraph(name string, g *graph.Graph, sets []*graph.NodeSet) error {
	if name == "" {
		return fmt.Errorf("service: graph name must be non-empty")
	}
	if g == nil {
		return fmt.Errorf("service: nil graph")
	}
	byName := make(map[string]*graph.NodeSet, len(sets))
	for _, set := range sets {
		if err := set.Validate(g); err != nil {
			return err
		}
		byName[set.Name] = set
	}
	var gen uint64
	if s.store != nil {
		var err error
		if gen, err = s.store.Put(name, g, sets); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, replacing := s.graphs[name]
	if !replacing && len(s.graphs) >= s.cfg.MaxGraphs {
		if s.store == nil {
			return fmt.Errorf("service: graph registry full (%d); drop one first", s.cfg.MaxGraphs)
		}
		s.evictGraphLocked(name)
	}
	s.graphs[name] = &graphEntry{g: g, sets: byName, gen: gen}
	s.touchGraphLocked(name)
	if replacing {
		s.purgeSessionsLocked(old.g)
	}
	return nil
}

// LoadGraphText reads a text-format graph (with node sets) and registers it,
// returning the registered entry's description. The info is computed from the
// parsed graph itself — not from a post-load registry lookup — so a
// concurrent DropGraph or replacing load cannot make a successful load look
// like the graph vanished.
func (s *Service) LoadGraphText(name string, r io.Reader) (GraphInfo, error) {
	g, sets, err := graph.ReadText(r)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := s.LoadGraph(name, g, sets); err != nil {
		return GraphInfo{}, err
	}
	info := GraphInfo{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.store != nil {
		info.Generation = s.store.Gen(name)
	}
	for _, set := range sets {
		info.Sets = append(info.Sets, set.Name)
	}
	sort.Strings(info.Sets)
	return info, nil
}

// DropGraph removes the named graph — its registry entry, its sessions, and
// (with a store attached) its on-disk state — reporting whether it existed.
// The graph stops being served even when the durable removal fails partway;
// the error is surfaced so the caller can retry the drop, and recovery
// treats a partially deleted graph as either fully present or fully absent.
func (s *Service) DropGraph(name string) (bool, error) {
	var derr error
	existed := false
	if s.store != nil && s.store.Has(name) {
		existed = true
		derr = s.store.Delete(name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ge, ok := s.graphs[name]; ok {
		existed = true
		delete(s.graphs, name)
		s.removeGraphOrderLocked(name)
		s.purgeSessionsLocked(ge.g)
	}
	return existed, derr
}

// purgeSessionsLocked drops every session keyed on g.
func (s *Service) purgeSessionsLocked(g *graph.Graph) {
	kept := s.sessionOrder[:0]
	for _, key := range s.sessionOrder {
		if key.g != g {
			kept = append(kept, key)
			continue
		}
		delete(s.sessions, key)
	}
	s.sessionOrder = kept
}

// Graphs lists the registry sorted by name — resident graphs plus any
// persisted graphs currently evicted from memory (marked Evicted; they
// reload on first use).
func (s *Service) Graphs() []GraphInfo {
	s.mu.Lock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for name, ge := range s.graphs {
		info := GraphInfo{Name: name, Nodes: ge.g.NumNodes(), Edges: ge.g.NumEdges(), Generation: ge.gen}
		for sn := range ge.sets {
			info.Sets = append(info.Sets, sn)
		}
		sort.Strings(info.Sets)
		out = append(out, info)
	}
	resident := make(map[string]bool, len(s.graphs))
	for name := range s.graphs {
		resident[name] = true
	}
	s.mu.Unlock()
	if s.store != nil {
		for _, name := range s.store.Names() {
			if resident[name] {
				continue
			}
			nodes, edges, gen, sets, ok := s.store.Info(name)
			if !ok {
				continue
			}
			out = append(out, GraphInfo{Name: name, Nodes: nodes, Edges: edges, Sets: sets, Generation: gen, Evicted: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// graphFor resolves a registry name, lazily reloading a persisted graph that
// was evicted from memory.
func (s *Service) graphFor(name string) (*graphEntry, error) {
	s.mu.Lock()
	if ge, ok := s.graphs[name]; ok {
		s.touchGraphLocked(name)
		s.mu.Unlock()
		return ge, nil
	}
	s.mu.Unlock()
	if s.store == nil || !s.store.Has(name) {
		return nil, fmt.Errorf("service: no graph %q loaded", name)
	}
	return s.reloadGraph(name)
}

// sessionFor returns (creating if needed) the shared session for the
// resolved configuration, refreshing its LRU recency.
func (s *Service) sessionFor(ge *graphEntry, params dht.Params, d int, mode graph.RelabelMode, measureName string) (*session, error) {
	key := sessionKey{g: ge.g, params: params, d: d, relabel: mode, measure: measureName}
	s.mu.Lock()
	if sess, ok := s.sessions[key]; ok {
		s.touchSessionLocked(key)
		s.mu.Unlock()
		return sess, nil
	}
	s.mu.Unlock()

	// Build outside the lock: a first relabel rebuild is O(|E| log |E|).
	rg, rl := ge.g.Relabeled(mode)
	pool, err := dht.NewEnginePool(rg, params, d)
	if err != nil {
		return nil, err
	}
	pool.Sink = &s.counters
	sess := &session{
		g:       rg,
		rl:      rl,
		pool:    pool,
		results: newResultLRU(s.cfg.ResultCacheSize),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.sessions[key]; ok {
		s.touchSessionLocked(key) // lost the build race; share the winner
		return prev, nil
	}
	// The graph may have been dropped (or replaced under its name) while the
	// session was being built lock-free. Caching the session then would pin
	// the dead graph's memory in an entry no future request can reach — the
	// request in flight still gets its session, it just isn't retained.
	if !s.graphLiveLocked(ge.g) {
		return sess, nil
	}
	if len(s.sessionOrder) >= s.cfg.MaxSessions {
		delete(s.sessions, s.sessionOrder[0])
		s.sessionOrder = s.sessionOrder[1:]
	}
	s.sessions[key] = sess
	s.sessionOrder = append(s.sessionOrder, key)
	return sess, nil
}

// graphLiveLocked reports whether g still backs a registry entry (caller
// holds s.mu). O(MaxGraphs), which is small by construction.
func (s *Service) graphLiveLocked(g *graph.Graph) bool {
	for _, ge := range s.graphs {
		if ge.g == g {
			return true
		}
	}
	return false
}

// touchSessionLocked moves key to the MRU position (caller holds s.mu and
// has verified presence).
func (s *Service) touchSessionLocked(key sessionKey) {
	for i, k := range s.sessionOrder {
		if k == key {
			copy(s.sessionOrder[i:], s.sessionOrder[i+1:])
			s.sessionOrder[len(s.sessionOrder)-1] = key
			return
		}
	}
}

// resolveSet maps a SetRef to node ids in the entry's graph. An explicit id
// list is a set like a named one: repeats are dropped, first occurrences kept
// (a joiner handed [a, a, b] would rank every pair of a twice).
func (ge *graphEntry) resolveSet(ref SetRef) ([]graph.NodeID, error) {
	switch {
	case ref.Name != "" && ref.IDs != nil:
		return nil, fmt.Errorf("service: set ref must have either a name or ids, not both")
	case ref.Name != "":
		set, ok := ge.sets[ref.Name]
		if !ok {
			return nil, fmt.Errorf("service: graph declares no node set %q", ref.Name)
		}
		return set.Nodes(), nil
	case len(ref.IDs) > 0:
		n := ge.g.NumNodes()
		for _, id := range ref.IDs {
			if id < 0 || int(id) >= n {
				return nil, fmt.Errorf("service: node %d out of range [0,%d)", id, n)
			}
		}
		return graph.NewNodeSet("", ref.IDs).Nodes(), nil
	}
	return nil, fmt.Errorf("service: empty set ref")
}
