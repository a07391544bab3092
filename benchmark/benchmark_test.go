package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

// inProcessEnv serves each workload from an httptest server over the same
// handler njoind mounts: no child process, and no disk except the durable
// workload's store.
func inProcessEnv(t *testing.T) *env {
	t.Helper()
	return &env{
		scratch:   t.TempDir(),
		inProcess: true,
		rounds:    1,
		start: func(w *workload, dataDir string) (*target, error) {
			cfg := service.Config{}
			var st *store.Store
			if w.durable {
				var err error
				if st, _, err = store.Open(store.Config{Dir: dataDir, SnapshotEvery: 16}); err != nil {
					return nil, err
				}
				cfg.Store = st
			}
			srv := httptest.NewServer(service.NewHandler(service.New(cfg)))
			return &target{addr: strings.TrimPrefix(srv.URL, "http://"), stop: func() {
				srv.Close()
				if st != nil {
					st.Close()
				}
			}}, nil
		},
	}
}

// TestSeedIsTheOnlyRandomness: the same seed gives byte-identical request
// lists for every workload, another seed gives different ones.
func TestSeedIsTheOnlyRandomness(t *testing.T) {
	for _, w := range workloads {
		lists := func(seed int64) []byte {
			p, err := prepare(w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Join([][]byte{listBytes(p.warm), listBytes(p.timed), listBytes(p.probes)}, nil)
		}
		a, b, c := lists(7), lists(7), lists(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different request lists", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", w.name)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload for one second against the
// in-process target and demands every end-to-end metric BENCHMARK.json
// declares, non-zero, with no failed or wrong response.
func TestWorkloadsEndToEnd(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		if workloadByName(wl.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", wl.Name)
		}
	}
	for _, w := range workloads { // join2_hot too, which BENCHMARK.json does not gate
		t.Run(w.name, func(t *testing.T) {
			p, err := prepare(w, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, m, err := p.runUntraced(inProcessEnv(t), 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted() == 0 {
				t.Errorf("attempted %d, failed %d: %v", m.attempted(), m.failed, m.notes)
			}
			var out bytes.Buffer
			if err := emit(&out, bf.EndToEnd, got, m.attempted(), m.failed); err != nil {
				t.Error(err)
			}
			for _, d := range bf.EndToEnd {
				if got[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, got[d.Name].Value)
				}
			}
		})
	}
}

// TestTracedRun climbs the whole ladder on the durable workload (the one
// that exercises every rung but the cluster's) and demands every per-layer
// metric BENCHMARK.json declares.
func TestTracedRun(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := prepare(workloadByName("mixed_rw"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, m, err := p.runTraced(inProcessEnv(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Errorf("attempted %d, failed %d: %v", m.attempted(), m.failed, m.notes)
	}
	var out bytes.Buffer
	if err := emit(&out, bf.PerLayer, got, m.attempted(), m.failed); err != nil {
		t.Error(err)
	}
	for _, name := range []string{"njoind.tcp_ms", "http.handler_ms", "service.join_ms", "dhtjoin.topk_ms", "join2.topk_ms", "dht.walk_us", "store.update_ms", "dht.walks_per_op"} {
		if got[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, got[name].Value)
		}
	}
}

// TestOracleRejectsAWrongAnswer: a response with one score changed, two
// ranks swapped, or a result dropped does not pass.
func TestOracleRejectsAWrongAnswer(t *testing.T) {
	p, err := prepare(workloadByName("mixed_rw"), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var r *request
	for _, x := range p.timed {
		if x.op == opJoin2 {
			r = x
			break
		}
	}
	svc := service.New(service.Config{})
	if err := svc.LoadGraph(r.graph, p.d.Graph, p.d.Sets); err != nil {
		t.Fatal(err)
	}
	rec, err := handle(service.NewHandler(svc), r)
	if err != nil {
		t.Fatal(err)
	}
	good := rec.Body.Bytes()
	o := newOracle(p.d, make(map[memoKey]any))
	if m := o.check(want{r, 0}, good); m != "" {
		t.Fatalf("correct response rejected: %s", m)
	}
	i := bytes.Index(good, []byte(`"score":-`))
	bad := bytes.Clone(good)
	bad[i+len(`"score":-`)]++ // 1.x -> 2.x
	if o.check(want{r, 0}, bad) == "" {
		t.Error("a changed score passed the oracle")
	}
	if o.check(want{r, 0}, []byte(`{"results":[]}`)) == "" {
		t.Error("an empty ranking passed the oracle")
	}
}

// TestQuartilesMatchPython pins spread() to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
	if q1, q3 := quartiles([]float64{10, 20}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles = %v, %v, want 7.5, 22.5", q1, q3)
	}
}

// TestCompareVerdicts: ok within the bound, regressed beyond it (exit
// non-zero), unresolved when a set's own spread exceeds the bound.
func TestCompareVerdicts(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []metricDef{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}, {Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	dir := t.TempDir()
	write := func(name string, p50, qps []float64) string {
		path := filepath.Join(dir, name)
		for i := range p50 {
			got := map[string]value{"p50_ms": {Value: p50[i]}, "qps": {Value: qps[i]}}
			if err := appendToSet(path, "w", bf.EndToEnd, got, 0); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", []float64{10, 10.1, 9.9, 10}, []float64{100, 101, 99, 100})
	same := write("same.json", []float64{10.2, 10.1, 10.3, 10.2}, []float64{98, 99, 97, 98})
	slow := write("slow.json", []float64{12, 12.1, 11.9, 12}, []float64{100, 101, 99, 100})
	noisy := write("noisy.json", []float64{7, 9, 11, 13}, []float64{100, 101, 99, 100})
	var out bytes.Buffer
	if err := compareSets(&out, bf, a, same); err != nil || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("equal sets: err %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSets(&out, bf, a, slow); err == nil || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a 20%% slower set was not reported as regressed:\n%s", out.String())
	}
	out.Reset()
	if err := compareSets(&out, bf, a, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a set with 40%% spread was not reported as unresolved: err %v\n%s", err, out.String())
	}
}

// listBytes is the canonical byte form of a request list (the determinism
// test compares it across seeds).
func listBytes(list []*request) []byte {
	var b bytes.Buffer
	for _, r := range list {
		fmt.Fprintf(&b, "%d ", r.due)
		b.Write(r.wire)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
