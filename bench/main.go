// Command bench is aidb's load harness: it starts a real aidb-serve,
// drives it over the TCP line protocol with named, seeded workloads,
// checks every answer against an oracle, and reports end-to-end and
// per-layer metrics. See README.md in this directory.
//
//	go run ./bench                                  # every workload once, untraced and traced
//	go run ./bench -runs 10 -out bench/out/set.json # a full set for -compare
//	go run ./bench -workload point_adhoc -seed 7 -seconds 15 -trace 0
//	go run ./bench -compare old.json new.json
//	go run ./bench -sweep open_mix
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// spec mirrors BENCHMARK.json at the repository root. A workload the
// harness knows but the file does not name is reported, not gated.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (sp *spec) gated(workload string) bool {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

func readSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// hostInfo goes into every result: the core count is part of the number.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	runs      int
	out       string
	compare   bool
	sweep     string
	quick     bool
	serverBin string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (the BENCHMARK.json contract)")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics, from counters and a traced in-process replay")
	flag.IntVar(&o.runs, "runs", 1, "full set: untraced runs per workload, seeds seed..seed+runs-1")
	flag.StringVar(&o.out, "out", filepath.Join(outDir, "result.json"), "full set: where the result is written")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.StringVar(&o.sweep, "sweep", "", "walk five arrival rates of this open-loop workload and report the capacity")
	flag.BoolVar(&o.quick, "quick", false, "2000-row tables, short warm-up, short traced replay: a smoke pass, not a measurement")
	flag.StringVar(&o.serverBin, "server", "", "a prebuilt aidb-serve (default: build ./cmd/aidb-serve)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// newConfig is a run's settings but for the workload.
func newConfig(seed uint64, window time.Duration, quick bool, serverBin string) runConfig {
	cfg := runConfig{seed: seed, sc: fullScale, warmup: 2 * time.Second, window: window, setups: 5, serverBin: serverBin, rateScale: 1}
	if quick {
		cfg.quick, cfg.sc, cfg.warmup, cfg.setups = true, quickScale, 200*time.Millisecond, 1
	}
	return cfg
}

func run(o options) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: -compare old.json new.json")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds <= 0 {
		o.seconds = sp.RunSeconds
	}
	// Servers die with this process (Pdeathsig), so a signal only has
	// to end it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		os.Exit(130)
	}()
	if o.serverBin == "" {
		if o.serverBin, err = buildServer(); err != nil {
			return err
		}
	}
	cfg := newConfig(o.seed, time.Duration(o.seconds)*time.Second, o.quick, o.serverBin)
	cfg.probe = startProber()
	defer cfg.probe.stop()
	h := host()
	fmt.Printf("# aidb load harness: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d connections=%d\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, o.seed, o.seconds, numConns)

	name := o.workload
	if o.sweep != "" {
		name = o.sweep
	}
	if name != "" {
		if cfg.w = findWorkload(name); cfg.w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
	}
	switch {
	case o.sweep != "":
		if !cfg.w.open {
			return fmt.Errorf("-sweep needs an open-loop workload, not %q", o.sweep)
		}
		return sweepRates(&cfg)
	case o.workload != "":
		return runOne(sp, &cfg, o.trace == 1)
	default:
		return runSet(sp, &cfg, h, o.runs, o.out)
	}
}

// contractLine is the last line of a -workload run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]contractVal `json:"metrics"`
}

type contractVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the BENCHMARK.json contract: one workload, one result line.
// It exits non-zero, after printing the line, when an answer was wrong.
func runOne(sp *spec, cfg *runConfig, traced bool) error {
	if traced {
		cfg.setups = 1 // setup_s is an end-to-end metric; not reported here
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printed, want := res.endToEnd, sp.EndToEnd
	if traced {
		layers, spans, err := traceWorkload(cfg)
		if err != nil {
			return err
		}
		if err := writeTrace(map[string][]span{cfg.w.name: spans}); err != nil {
			return err
		}
		printed, want = append(res.layers, layers...), sp.PerLayer
	}
	printMetrics(cfg.w.name, printed)
	if !traced {
		printMetrics(cfg.w.name, res.layers) // of the same run; not part of the result line
	}
	line := contractLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]contractVal{}}
	byName := map[string]metric{}
	for _, m := range printed {
		byName[m.name] = m
	}
	for _, sm := range want {
		m, ok := byName[sm.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names %s, which this harness does not measure", sm.Name)
		}
		line.Metrics[sm.Name] = contractVal{m.value, sm.Unit}
	}
	if res.note != "" {
		fmt.Printf("# first failure: %s\n", res.note)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.correct {
		os.Exit(1)
	}
	return nil
}

func printMetrics(workload string, ms []metric) {
	for _, m := range ms {
		note := ""
		if m.n > 0 {
			note = fmt.Sprintf("  (n=%d, tail readable to p%g)", m.n, highestSupported(m.n))
		}
		fmt.Printf("%-14s %-34s %14.4f %-6s%s\n", workload, m.name, m.value, m.unit, note)
	}
}

// resultFile is what a full set writes and -compare reads.
type resultFile struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted []int             `json:"attempted"`
	Failed    []int             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"` // one value per run
	PerLayer  map[string]series `json:"per_layer"`  // counters: one per run; traced spans: one
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func addTo(dst map[string]series, ms []metric) {
	for _, m := range ms {
		s := dst[m.name]
		s.Unit = m.unit
		s.Values = append(s.Values, m.value)
		dst[m.name] = s
	}
}

// runSet runs every workload runs times untraced, then once traced, and
// writes one result file.
func runSet(sp *spec, base *runConfig, h hostInfo, runs int, out string) error {
	rf := resultFile{Host: h, Seed: base.seed, Seconds: base.window.Seconds(), Runs: runs, Workloads: map[string]*workloadResult{}}
	allCorrect := true
	traced := map[string][]span{}
	for _, w := range workloads {
		wr := &workloadResult{EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		rf.Workloads[w.name] = wr
		cfg := *base
		cfg.w = w
		for r := 0; r < runs; r++ {
			cfg.seed = base.seed + uint64(r)
			res, err := runWorkload(&cfg)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, cfg.seed, err)
			}
			fmt.Printf("# %s seed=%d attempted=%d failed=%d correct=%v %s\n", w.name, cfg.seed, res.attempted, res.failed, res.correct, res.note)
			printMetrics(w.name, res.endToEnd)
			if r == runs-1 {
				printMetrics(w.name, res.layers)
			}
			wr.Attempted = append(wr.Attempted, res.attempted)
			wr.Failed = append(wr.Failed, res.failed)
			addTo(wr.EndToEnd, res.endToEnd)
			addTo(wr.PerLayer, res.layers)
			allCorrect = allCorrect && res.correct
		}
		cfg.seed = base.seed
		layers, spans, err := traceWorkload(&cfg)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		traced[w.name] = spans
		printMetrics(w.name, layers)
		addTo(wr.PerLayer, layers)
	}
	if runs > 1 {
		fmt.Println("# medians and spreads (interquartile distance over median) of the end-to-end metrics")
		for _, w := range workloads {
			for _, sm := range sp.EndToEnd {
				vals := rf.Workloads[w.name].EndToEnd[sm.Name].Values
				note := ""
				if !sp.gated(w.name) {
					note = "  (not gated)"
				}
				fmt.Printf("%-14s %-24s median %14.4f %-4s spread %6.2f%%  bound %4.0f%%%s\n", w.name, sm.Name, median(vals), sm.Unit, 100*spread(vals), 100*sm.Bound, note)
			}
		}
	}
	if err := writeTrace(traced); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("# result written to %s\n", out)
	if !allCorrect {
		return fmt.Errorf("at least one run had a wrong answer")
	}
	return nil
}
