package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict judges one end-to-end metric of one workload: regressed when
// the new median is worse than the old by more than the bound, and
// unresolved when either side's own run-to-run spread is wider than the
// bound, because then the medians cannot tell a change from noise.
func verdict(sm specMetric, oldVals, newVals []float64) (ratio float64, v string) {
	oldMed, newMed := median(oldVals), median(newVals)
	ratio = newMed / oldMed
	worse := ratio - 1
	if sm.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case spread(oldVals) > sm.Bound || spread(newVals) > sm.Bound:
		return ratio, "unresolved"
	case worse > sm.Bound:
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// compareFiles prints one row per workload and end-to-end metric. It
// returns an error, so the process exits non-zero, if any row regressed.
func compareFiles(sp *spec, oldPath, newPath string) error {
	oldRF, err := readResult(oldPath)
	if err != nil {
		return err
	}
	newRF, err := readResult(newPath)
	if err != nil {
		return err
	}
	describe := func(path string, rf *resultFile) {
		fmt.Printf("# %s: commit=%s nproc=%d GOMAXPROCS=%d %s seed=%d runs=%d seconds=%g\n",
			path, rf.Host.Commit, rf.Host.NProc, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Seed, rf.Runs, rf.Seconds)
	}
	describe(oldPath, oldRF)
	describe(newPath, newRF)
	if oldRF.Host.NProc != newRF.Host.NProc || oldRF.Seconds != newRF.Seconds {
		fmt.Println("# WARNING: core count or window differ; these results are not comparable")
	}
	// The ratio's base is the old median in the same row.
	fmt.Printf("%-14s %-24s %14s %8s %14s %8s %-5s %8s %6s  %s\n",
		"workload", "metric", "old median", "spread", "new median", "spread", "unit", "new/old", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		o, n := oldRF.Workloads[w.name], newRF.Workloads[w.name]
		if o == nil || n == nil {
			fmt.Printf("%-14s missing from one side\n", w.name)
			continue
		}
		for _, sm := range sp.EndToEnd {
			ov, nv := o.EndToEnd[sm.Name].Values, n.EndToEnd[sm.Name].Values
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Printf("%-14s %-24s missing from one side\n", w.name, sm.Name)
				continue
			}
			ratio, v := verdict(sm, ov, nv)
			switch {
			case !sp.gated(w.name):
				v = "not gated"
			case v == "regressed":
				regressed++
			}
			fmt.Printf("%-14s %-24s %14.4f %7.2f%% %14.4f %7.2f%% %-5s %7.3fx %5.0f%%  %s\n",
				w.name, sm.Name, median(ov), 100*spread(ov), median(nv), 100*spread(nv), sm.Unit, ratio, 100*sm.Bound, v)
		}
		fmt.Printf("%-14s %-24s old %d of %d, new %d of %d\n", w.name, "failed of attempted", sum(o.Failed), sum(o.Attempted), sum(n.Failed), sum(n.Attempted))
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
