package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// sweepScales are the five fixed multiples of the workload's frozen
// arrival rates that -sweep walks, lowest first.
var sweepScales = []float64{0.5, 0.75, 1, 1.5, 2}

// sweepRates reports latency at each rate and the highest rate that
// holds the p95 limit without a growing backlog. It is not part of the
// gated set: later admission and executor work quotes its capacity.
func sweepRates(cfg *runConfig) error {
	d := dataset{seed: cfg.seed, sc: cfg.sc}
	initPath, err := writeInitScript(cfg.w, d)
	if err != nil {
		return err
	}
	defer os.Remove(initPath)
	o, err := newOracle(d, cfg.w)
	if err != nil {
		return err
	}
	s, _, err := setUp(cfg, d, o, initPath)
	if err != nil {
		return err
	}
	defer s.close()
	if err := phase(cfg, s.clients, time.Now(), cfg.warmup); err != nil {
		return err
	}
	fmt.Printf("%-10s %10s %12s %12s %12s %10s %10s %s\n", "rate 1/s", "attempted", "in limit 1/s", "p50 us", "p95 us", "failed", "backlog", "holds")
	best := 0.0
	for _, sc := range sweepScales {
		for _, cl := range s.clients {
			cl.reset()
		}
		cfg.rateScale = sc
		// The backlog (sent, not yet answered) is read at half time and
		// at the end of the arrivals; it must not have grown by more
		// than one percent of what was sent.
		var half, end int64
		backlog := func() (n int64) {
			for _, cl := range s.clients {
				n += cl.sent.Load() - cl.answered.Load()
			}
			return n
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(cfg.window / 2)
			half = backlog()
			time.Sleep(cfg.window / 2)
			end = backlog()
		}()
		start := time.Now()
		cpuCh := sampleCPU(s.srv, start, cfg.window)
		err := phase(cfg, s.clients, start, cfg.window)
		wg.Wait()
		if err != nil {
			return err
		}
		res := summarize(cfg, s.clients, <-cpuCh, start)
		get := func(name string) float64 {
			for _, m := range res.endToEnd {
				if m.name == name {
					return m.value
				}
			}
			return 0
		}
		p50, p95 := get("latency_p50_us"), get("latency_p95_us")
		rate := (cfg.w.pointRate + cfg.w.analyticRate) * sc
		growing := float64(end-half) > 0.01*float64(res.attempted)
		holds := res.failed == 0 && p95 <= float64(latencyLimit/time.Microsecond) && !growing
		if holds && rate > best {
			best = rate
		}
		fmt.Printf("%-10.0f %10d %12.1f %12.1f %12.1f %10d %4d->%-4d %v\n", rate, res.attempted, get("throughput_stmts_s"), p50, p95, res.failed, half, end, holds)
	}
	fmt.Printf("# highest rate holding p95 <= %v with no failure and a non-growing backlog: %.0f statements/s (%d cores)\n", latencyLimit, best, runtime.NumCPU())
	return nil
}
