package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds what the harness compiles; outDir what a run leaves
// behind (init scripts, trace.json, results). Both are gitignored.
const (
	buildDir = ".bench_build"
	outDir   = "bench/out"
)

// buildServer compiles ./cmd/aidb-serve once per invocation; with a warm
// build cache that is a staleness check.
func buildServer() (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "aidb-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/aidb-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/aidb-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one aidb-serve subprocess.
type server struct {
	cmd      *exec.Cmd
	stderr   bytes.Buffer
	tcpAddr  string
	httpAddr string
	started  time.Time // just before exec
}

// startServer execs aidb-serve on free ports and waits until it has
// printed both addresses, which it does after the init script ran.
func startServer(bin, initPath string, flags []string) (*server, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-init", initPath}, flags...)
	s := &server{cmd: exec.Command(bin, args...)}
	s.cmd.Stderr = &s.stderr
	// The server must not outlive a harness that is killed outright.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	for s.httpAddr == "" && sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "aidb-serve: line protocol on "); ok {
			s.tcpAddr = a
		}
		if a, ok := strings.CutPrefix(line, "aidb-serve: http on "); ok {
			s.httpAddr = a
		}
	}
	if s.tcpAddr == "" || s.httpAddr == "" {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		return nil, fmt.Errorf("aidb-serve did not come up: %s", strings.TrimSpace(s.stderr.String()))
	}
	go io.Copy(io.Discard, stdout) // ends when the process closes its stdout
	return s, nil
}

// stop ends the process and waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// cpuSeconds is utime+stime of the server from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after ") ".
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	return (ut + st) / clockTick, nil
}

// peakRSSMB is VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// liveHeapMB is the heap in use right after a collection the harness
// asks for through the pprof endpoint (?gc=1): what the loaded tables,
// indexes and caches hold, without the collector's timing in it. The
// proc.* gauges refresh every 250ms, hence the wait.
func (s *server) liveHeapMB() (float64, error) {
	resp, err := http.Get("http://" + s.httpAddr + "/debug/pprof/heap?gc=1")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	time.Sleep(300 * time.Millisecond)
	c, err := s.scrape()
	if err != nil {
		return 0, err
	}
	return c.num["proc.heap_alloc_bytes"] / (1 << 20), nil
}

// counters is one scrape of GET /metrics?format=json: plain numbers for
// counters and gauges, and count, sum and quantiles for histograms.
type counters struct {
	num  map[string]float64
	hist map[string]histogram
}

type histogram struct {
	Count, Sum, P50, P95, P99 float64
}

func (s *server) scrape() (counters, error) {
	resp, err := http.Get("http://" + s.httpAddr + "/metrics?format=json")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return counters{}, fmt.Errorf("decode /metrics: %w", err)
	}
	return parseCounters(raw)
}

func parseCounters(raw map[string]json.RawMessage) (counters, error) {
	c := counters{num: map[string]float64{}, hist: map[string]histogram{}}
	for name, msg := range raw {
		var f float64
		if json.Unmarshal(msg, &f) == nil {
			c.num[name] = f
			continue
		}
		var h histogram
		if err := json.Unmarshal(msg, &h); err != nil {
			return c, fmt.Errorf("metric %s: %w", name, err)
		}
		c.hist[name] = h
	}
	return c, nil
}
