package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// The generators below are the substitutes for the paper's real datasets: a
// planted-partition (community) model for DBLP- and Yeast-like graphs, a
// preferential-attachment model for YouTube-like graphs, plus Erdős–Rényi,
// Watts–Strogatz, bipartite, and grid generators used by tests and ablations.
// All generators are deterministic given the seed.

// CommunityConfig parameterizes GenerateCommunity.
type CommunityConfig struct {
	Sizes      []int   // community sizes; node count is their sum
	PIn        float64 // within-community edge probability
	POut       float64 // cross-community edge probability
	Directed   bool
	MaxWeight  int   // weights drawn uniformly from [1,MaxWeight]; 0/1 means unweighted
	Seed       int64 // RNG seed
	MinOutLink int   // guarantee at least this many out-links per node (avoids sinks)
}

// GenerateCommunity builds a planted-partition graph and returns it together
// with one node set per community (named "C0", "C1", …).
//
// Cross-community probability is applied between every ordered pair of
// communities, scaled by 1/numCommunities so the expected cross degree stays
// bounded as the number of communities grows.
func GenerateCommunity(cfg CommunityConfig) (*Graph, []*NodeSet, error) {
	if len(cfg.Sizes) == 0 {
		return nil, nil, fmt.Errorf("graph: community config needs at least one community")
	}
	if cfg.PIn < 0 || cfg.PIn > 1 || cfg.POut < 0 || cfg.POut > 1 {
		return nil, nil, fmt.Errorf("graph: probabilities must lie in [0,1] (pin=%g pout=%g)", cfg.PIn, cfg.POut)
	}
	n := 0
	starts := make([]int, len(cfg.Sizes)+1)
	for i, s := range cfg.Sizes {
		if s <= 0 {
			return nil, nil, fmt.Errorf("graph: community %d has non-positive size %d", i, s)
		}
		starts[i] = n
		n += s
	}
	starts[len(cfg.Sizes)] = n

	rng := rand.New(rand.NewSource(cfg.Seed))
	b := NewBuilder(n, cfg.Directed)
	weight := func() float64 {
		if cfg.MaxWeight <= 1 {
			return 1
		}
		return float64(1 + rng.Intn(cfg.MaxWeight))
	}
	// Within-community edges: expected pin * s*(s-1)/2 per community. Sample
	// by geometric skipping so sparse communities stay cheap.
	for c, s := range cfg.Sizes {
		base := starts[c]
		samplePairs(rng, s, cfg.PIn, func(i, j int) {
			b.AddEdge(NodeID(base+i), NodeID(base+j), weight())
		})
	}
	// Cross-community edges.
	if cfg.POut > 0 && len(cfg.Sizes) > 1 {
		scale := cfg.POut / float64(len(cfg.Sizes)-1)
		for c1 := range cfg.Sizes {
			for c2 := c1 + 1; c2 < len(cfg.Sizes); c2++ {
				s1, s2 := cfg.Sizes[c1], cfg.Sizes[c2]
				sampleBipartite(rng, s1, s2, scale, func(i, j int) {
					b.AddEdge(NodeID(starts[c1]+i), NodeID(starts[c2]+j), weight())
				})
			}
		}
	}
	// Ensure minimum out-degree (sinks trap random walks).
	if cfg.MinOutLink > 0 {
		deg := make([]int, n)
		g0 := b.Build()
		for u := 0; u < n; u++ {
			deg[u] = g0.OutDegree(NodeID(u))
		}
		for u := 0; u < n; u++ {
			for deg[u] < cfg.MinOutLink {
				v := NodeID(rng.Intn(n))
				if int(v) == u {
					continue
				}
				b.AddEdge(NodeID(u), v, weight())
				deg[u]++
			}
		}
	}
	g := b.Build()
	sets := make([]*NodeSet, len(cfg.Sizes))
	for c := range cfg.Sizes {
		ids := make([]NodeID, 0, cfg.Sizes[c])
		for u := starts[c]; u < starts[c+1]; u++ {
			ids = append(ids, NodeID(u))
		}
		sets[c] = NewNodeSet(fmt.Sprintf("C%d", c), ids)
	}
	return g, sets, nil
}

// samplePairs invokes fn for each unordered pair (i,j), i<j, of [0,s) kept
// with probability p, using geometric skipping (O(p·s²) expected time).
func samplePairs(rng *rand.Rand, s int, p float64, fn func(i, j int)) {
	if p <= 0 || s < 2 {
		return
	}
	total := s * (s - 1) / 2
	idx := -1
	for {
		idx += 1 + geometricSkip(rng, p)
		if idx >= total {
			return
		}
		// Decode pair index: row i such that i*(2s-i-1)/2 <= idx.
		i, rem := decodePair(idx, s)
		fn(i, rem)
	}
}

// sampleBipartite invokes fn for each pair (i,j) in [0,s1)x[0,s2) kept with
// probability p.
func sampleBipartite(rng *rand.Rand, s1, s2 int, p float64, fn func(i, j int)) {
	if p <= 0 || s1 == 0 || s2 == 0 {
		return
	}
	total := s1 * s2
	idx := -1
	for {
		idx += 1 + geometricSkip(rng, p)
		if idx >= total {
			return
		}
		fn(idx/s2, idx%s2)
	}
}

// geometricSkip returns the number of failures before the next success of a
// Bernoulli(p) process.
func geometricSkip(rng *rand.Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	// Inverse CDF sampling; u in (0,1).
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	k := int(math.Log(u) / math.Log(1-p))
	if k < 0 {
		k = 0
	}
	return k
}

// decodePair maps a linear index over unordered pairs of [0,s) to (i,j), i<j.
func decodePair(idx, s int) (int, int) {
	i := 0
	rowLen := s - 1
	for idx >= rowLen {
		idx -= rowLen
		i++
		rowLen--
	}
	return i, i + 1 + idx
}

// GeneratePreferential builds a Barabási–Albert preferential-attachment graph
// with m links per new node. The result is undirected (both arcs present).
func GeneratePreferential(n, m int, seed int64) (*Graph, error) {
	if n < 2 || m < 1 {
		return nil, fmt.Errorf("graph: preferential attachment needs n>=2, m>=1 (n=%d m=%d)", n, m)
	}
	if m >= n {
		m = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, false)
	// Repeated-node list for degree-proportional sampling.
	targets := make([]NodeID, 0, 2*n*m)
	// Seed clique over the first m+1 nodes.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			b.AddEdge(NodeID(i), NodeID(j), 1)
			targets = append(targets, NodeID(i), NodeID(j))
		}
	}
	// Arrivals link in draw order: the order they enter targets steers every
	// later draw, so it must be a function of the seed alone (ranging over a
	// map here made one seed give a different graph on every call).
	chosen := make([]NodeID, 0, m)
	for u := m + 1; u < n; u++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			v := targets[rng.Intn(len(targets))]
			if int(v) == u || slices.Contains(chosen, v) {
				continue
			}
			chosen = append(chosen, v)
		}
		for _, v := range chosen {
			b.AddEdge(NodeID(u), v, 1)
			targets = append(targets, NodeID(u), v)
		}
	}
	return b.Build(), nil
}

// GenerateER builds a directed Erdős–Rényi graph G(n, p) with unit weights,
// guaranteeing at least one out-edge per node.
func GenerateER(n int, p float64, seed int64) (*Graph, error) {
	if n < 2 || p <= 0 || p > 1 {
		return nil, fmt.Errorf("graph: ER needs n>=2 and p in (0,1] (n=%d p=%g)", n, p)
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, true)
	outDeg := make([]int, n)
	total := n * n
	idx := -1
	for {
		idx += 1 + geometricSkip(rng, p)
		if idx >= total {
			break
		}
		u, v := idx/n, idx%n
		if u == v {
			continue
		}
		b.AddEdge(NodeID(u), NodeID(v), 1)
		outDeg[u]++
	}
	for u := 0; u < n; u++ {
		for outDeg[u] == 0 {
			v := rng.Intn(n)
			if v == u {
				continue
			}
			b.AddEdge(NodeID(u), NodeID(v), 1)
			outDeg[u]++
		}
	}
	return b.Build(), nil
}

// GenerateRing builds an undirected ring of n nodes with k neighbors on each
// side, optionally rewired with probability beta (Watts–Strogatz).
func GenerateRing(n, k int, beta float64, seed int64) (*Graph, error) {
	if n < 3 || k < 1 || 2*k >= n {
		return nil, fmt.Errorf("graph: ring needs n>=3 and 1<=k<n/2 (n=%d k=%d)", n, k)
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for d := 1; d <= k; d++ {
			v := (u + d) % n
			if beta > 0 && rng.Float64() < beta {
				for {
					w := rng.Intn(n)
					if w != u {
						v = w
						break
					}
				}
			}
			if u == v {
				continue
			}
			b.AddEdge(NodeID(u), NodeID(v), 1)
		}
	}
	return b.Build(), nil
}

// GenerateGrid builds an undirected w×h grid with unit weights. Useful for
// tests where hitting probabilities are easy to reason about.
func GenerateGrid(w, h int) (*Graph, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("graph: grid needs positive dimensions (w=%d h=%d)", w, h)
	}
	b := NewBuilder(w*h, false)
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.Build(), nil
}

// GenerateBipartite builds an undirected random bipartite graph between parts
// of size a and b with edge probability p, returning the graph and the two
// part node sets ("L", "R").
func GenerateBipartite(a, bSize int, p float64, seed int64) (*Graph, []*NodeSet, error) {
	if a < 1 || bSize < 1 || p <= 0 || p > 1 {
		return nil, nil, fmt.Errorf("graph: bipartite needs positive parts and p in (0,1]")
	}
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(a+bSize, false)
	deg := make([]int, a+bSize)
	sampleBipartite(rng, a, bSize, p, func(i, j int) {
		bld.AddEdge(NodeID(i), NodeID(a+j), 1)
		deg[i]++
		deg[a+j]++
	})
	// Connect isolated nodes so walks do not stall.
	for u := 0; u < a+bSize; u++ {
		if deg[u] > 0 {
			continue
		}
		var v int
		if u < a {
			v = a + rng.Intn(bSize)
		} else {
			v = rng.Intn(a)
		}
		bld.AddEdge(NodeID(u), NodeID(v), 1)
		deg[u]++
		deg[v]++
	}
	left := make([]NodeID, a)
	right := make([]NodeID, bSize)
	for i := range left {
		left[i] = NodeID(i)
	}
	for i := range right {
		right[i] = NodeID(a + i)
	}
	return bld.Build(), []*NodeSet{NewNodeSet("L", left), NewNodeSet("R", right)}, nil
}
