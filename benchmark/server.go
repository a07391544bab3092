package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// target is the server a workload is driven against: a real njoind child
// process, or (in the unit tests) an in-process httptest server.
type target struct {
	addr string
	pid  int // 0 when in-process
	stop func()
}

// repoRoot walks up from the working directory to the module that owns
// cmd/njoind.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "njoind", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no repository root with go.mod and cmd/njoind above the working directory")
		}
		dir = parent
	}
}

// buildNjoind compiles cmd/njoind from the checkout's source into outDir.
func buildNjoind(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "njoind")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/njoind")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building njoind: %v\n%s", err, out)
	}
	return bin, nil
}

// startNjoind execs njoind on an ephemeral loopback port and returns once it
// reports the bound address, which it does only after recovery has finished.
func startNjoind(bin string, args ...string) (*target, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// Should the benchmark itself be killed (a driver timeout), its servers
	// must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	var tail bytes.Buffer
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "njoind: serving on "); ok {
				addrCh <- a
				continue
			}
			if tail.Len() < 1<<16 {
				tail.WriteString(line + "\n")
			}
		}
	}()
	stop := func() {
		_ = cmd.Process.Kill() // teardown only; the durable state is checked by restartCheck
		<-drained
		_ = cmd.Wait()
	}
	select {
	case addr := <-addrCh:
		return &target{addr: addr, pid: cmd.Process.Pid, stop: stop}, nil
	case <-drained:
		_ = cmd.Wait()
		return nil, fmt.Errorf("njoind exited before serving:\n%s", tail.String())
	case <-time.After(60 * time.Second):
		stop()
		return nil, errors.New("njoind did not start serving within 60s")
	}
}

// njoindArgs are the flags a workload's server runs with beyond the
// defaults.
func njoindArgs(w *workload, dataDir string) []string {
	if !w.durable {
		return nil
	}
	return []string{"-data-dir", dataDir, "-snapshot-every", "16"}
}

// graphText serializes the dataset as the PUT /graphs/{name} body.
func graphText(d *graphData) ([]byte, error) {
	var b bytes.Buffer
	if err := graph.WriteText(&b, d.Graph, d.Sets...); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// putGraph loads text under name and returns the generation njoind reports.
func putGraph(c *conn, name string, text []byte) (uint64, error) {
	r := (&request{method: "PUT", path: "/graphs/" + name, body: text}).finish()
	res, err := c.do(r)
	if err != nil {
		return 0, err
	}
	if res.status != 200 {
		return 0, fmt.Errorf("PUT /graphs/%s: status %d: %s", name, res.status, res.body)
	}
	var info service.GraphInfo
	if err := json.Unmarshal(res.body, &info); err != nil {
		return 0, err
	}
	return info.Generation, nil
}

// readStats fetches GET /stats.
func readStats(c *conn) (service.Stats, error) {
	var st service.Stats
	res, err := c.do((&request{method: "GET", path: "/stats"}).finish())
	if err != nil {
		return st, err
	}
	if res.status != 200 {
		return st, fmt.Errorf("GET /stats: status %d", res.status)
	}
	return st, json.Unmarshal(res.body, &st)
}

// generationOf reads the named graph's generation from GET /graphs.
func generationOf(c *conn, name string) (uint64, error) {
	res, err := c.do((&request{method: "GET", path: "/graphs"}).finish())
	if err != nil {
		return 0, err
	}
	var out struct {
		Graphs []service.GraphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(res.body, &out); err != nil {
		return 0, err
	}
	for _, g := range out.Graphs {
		if g.Name == name {
			return g.Generation, nil
		}
	}
	return 0, fmt.Errorf("graph %q not listed after restart", name)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 for every architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used so far. pid 0
// means this process (the in-process test target).
func procCPU(pid int) (time.Duration, error) {
	if pid == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procPeakRSS returns VmHWM, the process's peak resident set, in MB.
func procPeakRSS(pid int) (float64, error) { return procRSS(pid, "VmHWM:") }

// procRSS returns one of the kB fields of /proc/<pid>/status in MB.
func procRSS(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// dirSize sums the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
