package join2

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dht"
	"repro/internal/graph"
)

// testConfig builds a community graph with two planted node sets.
func testConfig(t testing.TB, seed int64, lambda float64) Config {
	t.Helper()
	g, sets, err := graph.GenerateCommunity(graph.CommunityConfig{
		Sizes: []int{18, 18, 14}, PIn: 0.25, POut: 0.08, Seed: seed, MaxWeight: 3, MinOutLink: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := dht.DHTLambda(lambda)
	return Config{
		Graph:  g,
		Params: p,
		D:      8,
		P:      sets[0].Nodes(),
		Q:      sets[1].Nodes(),
	}
}

// allJoiners instantiates every 2-way algorithm over cfg.
func allJoiners(t testing.TB, cfg Config) []Joiner {
	t.Helper()
	fbj, err := NewFBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fidj, err := NewFIDJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bbj, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bx, err := NewBIDJX(cfg)
	if err != nil {
		t.Fatal(err)
	}
	by, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []Joiner{fbj, fidj, bbj, bx, by}
}

// assertSameTopK verifies two result lists agree as ranked score sequences
// and as pair sets up to equal-score permutations.
func assertSameTopK(t *testing.T, name string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", name, len(got), len(want))
	}
	const tol = 1e-9
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > tol {
			t.Fatalf("%s: rank %d score %v, want %v", name, i, got[i].Score, want[i].Score)
		}
	}
	// Pair sets must agree after grouping by (approximately) equal scores.
	gotPairs := map[Pair]float64{}
	wantPairs := map[Pair]float64{}
	for i := range got {
		gotPairs[got[i].Pair] = got[i].Score
		wantPairs[want[i].Pair] = want[i].Score
	}
	for pr, s := range gotPairs {
		ws, ok := wantPairs[pr]
		if !ok {
			// Allowed only if some other pair ties at this score (boundary tie).
			tied := false
			for _, w := range wantPairs {
				if math.Abs(w-s) <= tol {
					tied = true
					break
				}
			}
			if !tied {
				t.Fatalf("%s: pair %v (score %v) missing from reference", name, pr, s)
			}
			continue
		}
		if math.Abs(ws-s) > tol {
			t.Fatalf("%s: pair %v score %v vs reference %v", name, pr, s, ws)
		}
	}
}

// TestAllAlgorithmsAgree is the central 2-way equivalence test: all five
// algorithms must produce identical top-k rankings, for both DHT variants.
func TestAllAlgorithmsAgree(t *testing.T) {
	for _, lambda := range []float64{0.2, 0.6} {
		cfg := testConfig(t, 77, lambda)
		ref, err := NewBBJ(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.TopK(25)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range allJoiners(t, cfg) {
			got, err := j.TopK(25)
			if err != nil {
				t.Fatalf("%s: %v", j.Name(), err)
			}
			assertSameTopK(t, j.Name(), got, want)
		}
	}
}

func TestAllAlgorithmsAgreeDHTE(t *testing.T) {
	cfg := testConfig(t, 5, 0.2)
	cfg.Params = dht.DHTE()
	cfg.D = cfg.Params.StepsForEpsilon(1e-6)
	ref, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TopK(15)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range allJoiners(t, cfg) {
		got, err := j.TopK(15)
		if err != nil {
			t.Fatalf("%s: %v", j.Name(), err)
		}
		assertSameTopK(t, j.Name(), got, want)
	}
}

func TestResultsSortedDescending(t *testing.T) {
	cfg := testConfig(t, 13, 0.4)
	for _, j := range allJoiners(t, cfg) {
		res, err := j.TopK(30)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(res, func(i, k int) bool { return res[i].Score > res[k].Score }) &&
			!sort.SliceIsSorted(res, func(i, k int) bool { return res[i].Score >= res[k].Score }) {
			t.Fatalf("%s: results not sorted descending", j.Name())
		}
	}
}

func TestKLargerThanSpace(t *testing.T) {
	cfg := testConfig(t, 3, 0.2)
	cfg.P = cfg.P[:3]
	cfg.Q = cfg.Q[:4]
	for _, j := range allJoiners(t, cfg) {
		res, err := j.TopK(1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 12 {
			t.Fatalf("%s: %d results, want 12 (full space)", j.Name(), len(res))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, 1, 0.2)
	cases := []struct {
		name string
		mut  func(c *Config)
	}{
		{"nil graph", func(c *Config) { c.Graph = nil }},
		{"bad lambda", func(c *Config) { c.Params.Lambda = 1.5 }},
		{"zero d", func(c *Config) { c.D = 0 }},
		{"empty P", func(c *Config) { c.P = nil }},
		{"empty Q", func(c *Config) { c.Q = nil }},
		{"range P", func(c *Config) { c.P = []graph.NodeID{9999} }},
		{"range Q", func(c *Config) { c.Q = []graph.NodeID{-1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mut(&cfg)
			if cfg.Validate() == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := NewBBJ(cfg); err == nil {
				t.Fatal("joiner constructed from invalid config")
			}
		})
	}
	for _, j := range allJoiners(t, good) {
		if _, err := j.TopK(0); err == nil {
			t.Fatalf("%s: k=0 accepted", j.Name())
		}
		if _, err := j.TopK(-3); err == nil {
			t.Fatalf("%s: negative k accepted", j.Name())
		}
	}
}

func TestOverlappingSetsSelfPairs(t *testing.T) {
	// P and Q share nodes; self pairs must carry score 0 in every algorithm.
	cfg := testConfig(t, 8, 0.2)
	cfg.Q = cfg.P
	ref, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range allJoiners(t, cfg) {
		got, err := j.TopK(10)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTopK(t, j.Name(), got, want)
	}
}

func TestBIDJPruningStats(t *testing.T) {
	cfg := testConfig(t, 21, 0.2)
	by, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := by.TopK(5); err != nil {
		t.Fatal(err)
	}
	if len(by.Stats) == 0 {
		t.Fatal("no iteration stats recorded")
	}
	fr := by.PrunedFractionPerIter()
	for i := 1; i < len(fr); i++ {
		if fr[i] < fr[i-1] {
			t.Fatalf("cumulative pruned fraction decreased: %v", fr)
		}
	}
	if fr[len(fr)-1] < 0 || fr[len(fr)-1] > 1 {
		t.Fatalf("pruned fraction out of range: %v", fr)
	}
}

// TestBIDJYPrunesAtLeastAsMuchAsX verifies Lemma 5's practical consequence.
func TestBIDJYPrunesAtLeastAsMuchAsX(t *testing.T) {
	cfg := testConfig(t, 55, 0.7)
	bx, _ := NewBIDJX(cfg)
	by, _ := NewBIDJY(cfg)
	if _, err := bx.TopK(5); err != nil {
		t.Fatal(err)
	}
	if _, err := by.TopK(5); err != nil {
		t.Fatal(err)
	}
	totalX, totalY := 0, 0
	for _, s := range bx.Stats {
		totalX += s.Pruned
	}
	for _, s := range by.Stats {
		totalY += s.Pruned
	}
	if totalY < totalX {
		t.Fatalf("Y pruned %d < X pruned %d", totalY, totalX)
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	cfg := testConfig(t, 99, 0.3)
	ref, err := NewBBJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ref.TopK(40)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []BoundVariant{BoundX, BoundY} {
		inc, err := NewIncremental(cfg, variant)
		if err != nil {
			t.Fatal(err)
		}
		first, err := inc.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]Result(nil), first...)
		for len(got) < 40 {
			r, ok, err := inc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, r)
		}
		assertSameTopK(t, "Incremental-"+variant.String(), got, full)
	}
}

func TestIncrementalExhaustsSpace(t *testing.T) {
	cfg := testConfig(t, 2, 0.2)
	cfg.P = cfg.P[:4]
	cfg.Q = cfg.Q[:5]
	inc, err := NewIncremental(cfg, BoundY)
	if err != nil {
		t.Fatal(err)
	}
	first, err := inc.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	count := len(first)
	prev := math.Inf(1)
	for _, r := range first {
		if r.Score > prev+1e-9 {
			t.Fatal("initial results not descending")
		}
		prev = r.Score
	}
	for {
		r, ok, err := inc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if r.Score > prev+1e-9 {
			t.Fatalf("Next returned score %v above previous %v", r.Score, prev)
		}
		prev = r.Score
		count++
	}
	if count != 20 {
		t.Fatalf("drained %d pairs, want 20", count)
	}
	// Further calls keep returning ok=false without error.
	if _, ok, err := inc.Next(); ok || err != nil {
		t.Fatalf("exhausted Next = %v, %v", ok, err)
	}
}

func TestIncrementalMisuse(t *testing.T) {
	cfg := testConfig(t, 2, 0.2)
	inc, err := NewIncremental(cfg, BoundY)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := inc.Next(); err == nil {
		t.Fatal("Next before Run accepted")
	}
	if _, err := inc.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Run(5); err == nil {
		t.Fatal("second Run accepted")
	}
}

// TestIncrementalStreamProperty: for random small graphs, the incremental
// stream must equal the batch ranking, pair for pair, under score tolerance.
func TestIncrementalStreamProperty(t *testing.T) {
	f := func(seed int64, rawLambda uint8, rawM uint8) bool {
		g, err := graph.GenerateER(30, 0.12, seed)
		if err != nil {
			return false
		}
		lambda := 0.15 + float64(rawLambda%7)/10
		cfg := Config{
			Graph:  g,
			Params: dht.DHTLambda(lambda),
			D:      8,
			P:      []graph.NodeID{0, 1, 2, 3, 4, 5},
			Q:      []graph.NodeID{10, 11, 12, 13, 14},
		}
		ref, err := NewBBJ(cfg)
		if err != nil {
			return false
		}
		want, err := ref.TopK(30)
		if err != nil {
			return false
		}
		inc, err := NewIncremental(cfg, BoundY)
		if err != nil {
			return false
		}
		m := 1 + int(rawM)%8
		got, err := inc.Run(m)
		if err != nil {
			return false
		}
		for len(got) < len(want) {
			r, ok, err := inc.Next()
			if err != nil || !ok {
				return false
			}
			got = append(got, r)
		}
		for i := range want {
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestFIDJPruneStats(t *testing.T) {
	cfg := testConfig(t, 41, 0.2)
	f, err := NewFIDJ(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.TopK(5); err != nil {
		t.Fatal(err)
	}
	if len(f.PrunedPerRound) == 0 {
		t.Fatal("no prune stats")
	}
}

// TestLinearScheduleSameResults: the ablation knob must not change the
// answer, only the work profile.
func TestLinearScheduleSameResults(t *testing.T) {
	cfg := testConfig(t, 71, 0.4)
	normal, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := normal.TopK(15)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	linear.LinearSchedule = true
	got, err := linear.TopK(15)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTopK(t, "linear-schedule", got, want)
	if len(linear.Stats) <= len(normal.Stats) {
		t.Fatalf("linear schedule ran %d rounds, doubling %d; expected more", len(linear.Stats), len(normal.Stats))
	}
}

func TestBoundVariantString(t *testing.T) {
	if BoundX.String() != "X" || BoundY.String() != "Y" {
		t.Fatal("variant names wrong")
	}
	for _, kind := range allJoiners(t, testConfig(t, 1, 0.2)) {
		if kind.Name() == "" {
			t.Fatal("empty joiner name")
		}
	}
}

// TestJoinerCountersAggregate: a shared Counters sink must see the walk work
// of every join that writes to it.
func TestJoinerCountersAggregate(t *testing.T) {
	cfg := testConfig(t, 29, 0.4)
	var ctrs dht.Counters
	cfg.Counters = &ctrs
	run := func() {
		j, err := NewBIDJY(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Release()
		if _, err := j.TopK(10); err != nil {
			t.Fatal(err)
		}
	}
	run()
	one := ctrs.Snapshot()
	if one.Walks == 0 || one.EdgeSweeps+one.FrontierEdges == 0 {
		t.Fatalf("counters empty after one join: %+v", one)
	}
	run()
	if got := ctrs.Snapshot().Walks; got != 2*one.Walks {
		t.Fatalf("two joins counted %d walks, want 2·%d", got, one.Walks)
	}
}

// TestRepeatedTopKStable: cached engines and Y tables across TopK calls must
// not change results — the PJ re-join stream depends on the top-m being a
// prefix of the top-(m+1).
func TestRepeatedTopKStable(t *testing.T) {
	cfg := testConfig(t, 31, 0.5)
	j, err := NewBIDJY(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := j.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := j.TopK(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigger) < len(first) {
		t.Fatalf("topk shrank: %d then %d", len(first), len(bigger))
	}
	for i := range first {
		if bigger[i] != first[i] {
			t.Fatalf("prefix violated at %d: %v vs %v", i, bigger[i], first[i])
		}
	}
	again, err := j.TopK(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if again[i] != first[i] {
			t.Fatalf("repeat drifted at %d: %v vs %v", i, again[i], first[i])
		}
	}
}
