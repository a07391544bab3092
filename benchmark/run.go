package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/service"
)

// env is what a run needs besides the workload: how to start a server.
type env struct {
	// start brings up a fresh server for w; dataDir is where a durable
	// workload keeps its store (the same directory restarts on it).
	start func(w *workload, dataDir string) (*target, error)
	// scratch is a directory for data dirs and the trace file.
	scratch string
	// rounds is how many fresh servers a run spreads its window over (the
	// unit tests use one).
	rounds int
	// setupsOnly is how many more servers are set up and stopped after each
	// round, only to time the set-up (the unit tests make none).
	setupsOnly int
	// inProcess marks the unit tests' httptest target: no child to kill, so
	// the durability check is skipped.
	inProcess bool
}

// prepared is a workload's inputs for one seed.
type prepared struct {
	w      *workload
	seed   int64
	d      *graphData
	text   []byte
	warm   []*request
	timed  []*request
	probes []*request
}

func prepare(w *workload, seed int64, seconds int) (*prepared, error) {
	d, err := loadDataset(w.graph)
	if err != nil {
		return nil, err
	}
	text, err := graphText(d)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, seed: seed, d: d, text: text}
	p.warm, p.timed = generate(w, d, seed, seconds)
	if w.openRate == 0 {
		p.probes = writeProbeList(d, w.graph, seed)
	}
	return p, nil
}

// setUp starts a fresh server, loads the graph and runs the warm-up list over
// nconn connections: the interval setup_s measures. It returns the
// generation the PUT reported.
func (p *prepared) setUp(e *env, dataDir string, nconn int) (*target, uint64, time.Duration, error) {
	t0 := time.Now()
	tgt, err := e.start(p.w, dataDir)
	if err != nil {
		return nil, 0, 0, err
	}
	c, err := dial(tgt.addr)
	if err != nil {
		tgt.stop()
		return nil, 0, 0, err
	}
	defer c.close()
	gen, err := putGraph(c, p.w.graph, p.text)
	if err != nil {
		tgt.stop()
		return nil, 0, 0, err
	}
	warm, err := (&load{addr: tgt.addr, list: p.warm}).replay(nconn)
	if err == nil {
		for i := range warm {
			if !warm[i].ok {
				err = fmt.Errorf("warm-up request %d failed: %s", warm[i].idx, warm[i].err)
				break
			}
		}
	}
	if err != nil {
		tgt.stop()
		return nil, 0, 0, err
	}
	return tgt, gen, time.Since(t0), nil
}

// setUpOnly times one more set-up and discards the server. One run's four
// rounds give four set-up times, too few for a steady median of an interval
// that is mostly process start and page faults.
func (p *prepared) setUpOnly(e *env) (time.Duration, error) {
	dataDir, err := e.dataDirFor(p.w, "setup")
	if err != nil {
		return 0, err
	}
	if dataDir != "" {
		defer os.RemoveAll(dataDir)
	}
	tgt, _, took, err := p.setUp(e, dataDir, clients)
	if err != nil {
		return 0, err
	}
	tgt.stop()
	return took, nil
}

// round is one fresh server's share of the measurement: its set-up, its
// part of the timed window, and everything read around that.
type round struct {
	list     []*request // the round's part of the timed list
	probes   []*request // its post-window edge updates (read-only workloads)
	setup    time.Duration
	samples  []sample // window requests, then the write probes
	probeAt  int      // samples[probeAt:] are the probes
	start    time.Time
	elapsed  time.Duration
	slice    time.Duration // slice length; the round's window is a whole number of slices
	marks    []mark        // process readings at the slice boundaries, len = slices+1
	selfCPU  time.Duration // the generator's own CPU over the window
	peakMB   float64       // njoind VmHWM at window end
	before   service.Stats
	after    service.Stats
	putGen   uint64
	walBytes int64
	oracle   *oracle
	recover  time.Duration // last round of a durable workload: SIGKILL restart to ready
}

// request returns the request behind samples[i].
func (rd *round) request(i int) *request {
	if i >= rd.probeAt {
		return rd.probes[rd.samples[i].idx]
	}
	return rd.list[rd.samples[i].idx]
}

// measurement is a whole run: several rounds, each against its own fresh
// njoind. How fast one process runs depends on where its memory and threads
// happen to land, by more than the bounds allow; spreading the window over
// several server processes and taking medians over all their slices keeps
// one unlucky process from deciding a run.
type measurement struct {
	rounds []*round
	setups []time.Duration // the set-up-only cycles; the rounds' own set-ups are in rounds
	failed int
	notes  []string

	ladder      []ladderRow // traced runs only
	ladderTitle string
}

func (m *measurement) attempted() int {
	n := 0
	for _, rd := range m.rounds {
		n += len(rd.samples)
	}
	return n
}

func (m *measurement) note(format string, args ...any) {
	if len(m.notes) < 20 {
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// roundList is round r's part of the timed list: a contiguous stretch of a
// closed loop's list, or the part of an open loop's schedule that falls due
// in the round's share of the window, with its due times rebased.
func (p *prepared) roundList(r, of int, seconds int) []*request {
	if p.w.openRate == 0 {
		n := len(p.timed) / of
		return p.timed[r*n : (r+1)*n]
	}
	span := time.Duration(seconds) * time.Second / time.Duration(of)
	var out []*request
	for _, rq := range p.timed {
		if rq.due >= time.Duration(r)*span && rq.due < time.Duration(r+1)*span {
			cp := *rq
			cp.due -= time.Duration(r) * span
			out = append(out, &cp)
		}
	}
	return out
}

// measure runs the rounds; tr is nil with tracing off.
func (p *prepared) measure(e *env, seconds int, tr *tracer) (*measurement, error) {
	m := &measurement{}
	n := min(e.rounds, seconds)
	memo := make(map[memoKey]any)
	probes := len(p.probes) / n
	for r := 0; r < n; r++ {
		rd := &round{list: p.roundList(r, n, seconds), oracle: newOracle(p.d, memo)}
		if probes > 0 {
			rd.probes = p.probes[r*probes : (r+1)*probes]
		}
		m.rounds = append(m.rounds, rd)
		if err := p.runRound(e, m, rd, seconds/n, r == n-1, tr); err != nil {
			return nil, err
		}
		for i := 0; i < e.setupsOnly; i++ {
			took, err := p.setUpOnly(e)
			if err != nil {
				return nil, err
			}
			m.setups = append(m.setups, took)
		}
	}
	if p.w.openRate > 0 {
		// An open loop that cannot keep up is saturated: its latencies then
		// measure the backlog, not njoind, and the run is void.
		var elapsed time.Duration
		for _, rd := range m.rounds {
			elapsed += rd.elapsed
		}
		if achieved := float64(m.attempted()-m.failed) / elapsed.Seconds(); achieved < 0.95*p.w.openRate {
			m.failed = m.attempted()
			m.note("saturated: achieved %.1f req/s of %.1f offered", achieved, p.w.openRate)
		}
	}
	return m, nil
}

// keepForOracle selects the responses the oracle may recompute — every 25th
// and the first few of each round — plus every write, whose body carries the
// generation it produced.
func keepForOracle(idx int, r *request) bool {
	return r.op == opEdges || idx%oracleStride == 0 || idx < oracleFloor
}

// runRound sets up a fresh server, drives the round's window against it,
// probes, verifies, and stops the server.
func (p *prepared) runRound(e *env, m *measurement, rd *round, seconds int, last bool, tr *tracer) error {
	dataDir, err := e.dataDirFor(p.w, "round")
	if err != nil {
		return err
	}
	if dataDir != "" {
		defer os.RemoveAll(dataDir)
	}
	tgt, putGen, took, err := p.setUp(e, dataDir, clients)
	if err != nil {
		return err
	}
	defer func() { tgt.stop() }() // restartCheck replaces *tgt
	rd.setup, rd.putGen = took, putGen
	c, err := dial(tgt.addr)
	if err != nil {
		return err
	}
	defer c.close()
	if rd.before, err = readStats(c); err != nil {
		return err
	}
	self0, err := procCPU(0)
	if err != nil {
		return err
	}
	dur := time.Duration(seconds) * time.Second
	slices := max(1, seconds/sliceSeconds)
	rd.slice = dur / time.Duration(slices)
	marks := make(chan []mark, 1)
	go func() { marks <- readMarks(tgt.pid, rd.slice, slices) }()
	l := &load{addr: tgt.addr, list: rd.list, keep: keepForOracle, tr: tr}
	if p.w.openRate > 0 {
		rd.samples, rd.start, err = l.openLoop()
	} else {
		rd.samples, rd.start, err = l.closedLoop(dur)
	}
	rd.marks = <-marks
	if err != nil {
		return err
	}
	rd.elapsed = max(dur, latestEnd(rd.samples).Sub(rd.start))
	self1, err := procCPU(0)
	if err != nil {
		return err
	}
	if tgt.pid != 0 { // in-process the generator and the server cannot be told apart
		rd.selfCPU = self1 - self0
	}
	if rd.after, err = readStats(c); err != nil {
		return err
	}
	if rd.peakMB, err = procPeakRSS(tgt.pid); err != nil {
		return err
	}
	rd.probeAt = len(rd.samples)
	if len(rd.probes) > 0 {
		got, err := (&load{addr: tgt.addr, list: rd.probes, keep: keepForOracle}).replay(1)
		if err != nil {
			return err
		}
		rd.samples = append(rd.samples, got...)
	}
	if p.w.durable {
		if rd.walBytes, err = dirSize(dataDir); err != nil {
			return err
		}
	}
	p.verify(m, rd)
	if last && p.w.durable && !e.inProcess {
		if err := p.restartCheck(e, tgt, dataDir, rd); err != nil {
			m.failed = m.attempted() // any durability failure fails the whole workload
			m.note("durability: %v", err)
		}
	}
	return nil
}

// mark is one reading of the server process at a slice boundary.
type mark struct {
	at    time.Time
	cpu   time.Duration
	rssMB float64
}

// readMarks reads the server's CPU time and resident set at every slice
// boundary of the window that starts now. A failed reading leaves a zero
// mark, which endToEnd skips.
func readMarks(pid int, slice time.Duration, slices int) []mark {
	start := time.Now()
	out := make([]mark, slices+1)
	for i := range out {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		cpu, err1 := procCPU(pid)
		rss, err2 := procRSS(pid, "VmRSS:")
		if err1 == nil && err2 == nil {
			out[i] = mark{at: time.Now(), cpu: cpu, rssMB: rss}
		}
	}
	return out
}

func latestEnd(samples []sample) time.Time {
	var t time.Time
	for i := range samples {
		if samples[i].end.After(t) {
			t = samples[i].end
		}
	}
	return t
}

// write is one acknowledged edge update, ordered by the generation njoind
// assigned it.
type write struct {
	gen        uint64
	start, end time.Time
	req        *request
}

// verify counts the round's transport failures and runs the oracle over the
// kept responses. A read that overlapped a write may have been served at
// either generation, so it passes if it matches any generation current
// during it.
func (p *prepared) verify(m *measurement, rd *round) {
	var writes []write
	for i := range rd.samples {
		s := &rd.samples[i]
		if !s.ok {
			m.failed++
			m.note("request %d (%s) failed: %s", s.idx, opNames[s.op], s.err)
			continue
		}
		if s.op == opEdges {
			var info service.GraphInfo
			if err := json.Unmarshal(s.body, &info); err != nil || info.Generation == 0 {
				s.ok = false
				m.failed++
				m.note("edge update %d: no generation in %.80q", s.idx, s.body)
				continue
			}
			writes = append(writes, write{gen: info.Generation, start: s.start, end: s.end, req: rd.request(i)})
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].gen < writes[j].gen })
	o := rd.oracle
	for i, w := range writes {
		if w.gen != rd.putGen+uint64(i)+1 {
			m.failed++
			m.note("edge update generations are not consecutive: %d-th write reported %d after PUT generation %d", i+1, w.gen, rd.putGen)
			return
		}
		o.edits = append(o.edits, w.req)
	}
	// Every 25th response is checked; when the round was too short for that
	// to reach oracleFloor, its first responses top it up, and when it gives
	// more than oracleCap, an evenly spaced oracleCap of them are kept.
	var checks, picked []int
	strided := 0
	for i := range rd.samples[:rd.probeAt] {
		if s := &rd.samples[i]; s.ok && s.body != nil && s.op != opEdges {
			checks = append(checks, i)
			if s.idx%oracleStride == 0 {
				strided++
			}
		}
	}
	sort.Slice(checks, func(a, b int) bool { return rd.samples[checks[a]].idx < rd.samples[checks[b]].idx })
	for _, i := range checks {
		if rd.samples[i].idx%oracleStride != 0 {
			if strided >= oracleFloor {
				continue
			}
			strided++
		}
		picked = append(picked, i)
	}
	if n := len(picked); n > oracleCap {
		for j := 0; j < oracleCap; j++ {
			picked[j] = picked[j*n/oracleCap]
		}
		picked = picked[:oracleCap]
	}
	// Generation c (c edits applied) is current from some instant of write c
	// until some instant of write c+1, so a read that overlapped writes has
	// several candidates.
	candidates := make(map[int][]want)
	var all []want
	for _, i := range picked {
		s := &rd.samples[i]
		for c := 0; c <= len(writes); c++ {
			if c > 0 && writes[c-1].start.After(s.end) {
				break
			}
			if c < len(writes) && writes[c].end.Before(s.start) {
				continue
			}
			candidates[i] = append(candidates[i], want{rd.request(i), c})
		}
		all = append(all, candidates[i]...)
	}
	o.prepare(all)
	for i, cands := range candidates {
		mismatch := ""
		for _, w := range cands {
			if mismatch = o.check(w, rd.samples[i].body); mismatch == "" {
				break
			}
		}
		if mismatch != "" {
			s := &rd.samples[i]
			s.ok = false
			m.failed++
			m.note("request %d (%s) wrong: %s", s.idx, opNames[s.op], mismatch)
		}
	}
}

// restartCheck is the durability check: SIGKILL njoind, restart it on the
// same data directory, and demand that the generation equals the PUT's plus
// every acknowledged write and that one query per measure and a score match
// the oracle on the locally edited graph. It leaves tgt pointing at the
// restarted server and records the restart-to-ready time.
func (p *prepared) restartCheck(e *env, tgt *target, dataDir string, rd *round) error {
	tgt.stop()
	t0 := time.Now()
	fresh, err := e.start(p.w, dataDir)
	if err != nil {
		return err
	}
	rd.recover = time.Since(t0)
	*tgt = *fresh
	c, err := dial(tgt.addr)
	if err != nil {
		return err
	}
	defer c.close()
	acked := len(rd.oracle.edits)
	gen, err := generationOf(c, p.w.graph)
	if err != nil {
		return err
	}
	if want := rd.putGen + uint64(acked); gen != want {
		return fmt.Errorf("generation %d after restart, want %d (PUT %d + %d acknowledged writes)", gen, want, rd.putGen, acked)
	}
	seen := make(map[opKind]bool)
	for _, r := range rd.list {
		if r.op == opEdges || seen[r.op] {
			continue
		}
		seen[r.op] = true
		res, err := c.do(r)
		if err != nil {
			return err
		}
		if res.status != 200 {
			return fmt.Errorf("%s after restart: status %d", opNames[r.op], res.status)
		}
		if m := rd.oracle.check(want{r, acked}, res.body); m != "" {
			return fmt.Errorf("%s after restart: %s", opNames[r.op], m)
		}
	}
	return nil
}

// dataDirFor returns a fresh data directory for one server lifetime.
func (e *env) dataDirFor(w *workload, tag string) (string, error) {
	if !w.durable {
		return "", nil
	}
	dir := filepath.Join(e.scratch, fmt.Sprintf("data-%s-%d-%s", w.name, os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
