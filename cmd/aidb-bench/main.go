// Command aidb-bench regenerates the experiment tables from DESIGN.md's
// matrix and prints them, one per experiment. It is only the
// experiment-matrix runner: end-to-end and per-layer server timings are
// `go run ./bench`, micro-benchmarks are `go test -bench` next to the
// code they time.
//
// Usage:
//
//	aidb-bench           # run everything
//	aidb-bench -e E7     # run one experiment (or ablation, e.g. A2)
//	aidb-bench -seed 123 # change the deterministic seed
//	aidb-bench -a        # run the design-choice ablations
package main

import (
	"flag"
	"fmt"
	"os"

	"aidb/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("e", "", "run a single experiment id (e.g. E7 or A2); empty runs all")
		seed      = flag.Uint64("seed", 20260705, "deterministic seed for all experiments")
		ablations = flag.Bool("a", false, "run the design-choice ablations (A1..A5) instead of the matrix")
	)
	flag.Parse()
	os.Exit(run(*exp, *seed, *ablations))
}

func run(exp string, seed uint64, ablations bool) int {
	if exp != "" && exp[0] == 'A' {
		t, err := experiments.RunAblation(exp, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(t.String())
		if !t.Holds {
			return 1
		}
		return 0
	}
	if ablations {
		failed := 0
		for _, t := range experiments.RunAllAblations(seed) {
			fmt.Println(t.String())
			if !t.Holds {
				failed++
			}
		}
		fmt.Printf("%d/%d ablation shapes hold\n", len(experiments.AblationIDs())-failed, len(experiments.AblationIDs()))
		if failed > 0 {
			return 1
		}
		return 0
	}
	if exp != "" {
		t, err := experiments.Run(exp, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(t.String())
		if !t.Holds {
			return 1
		}
		return 0
	}
	failed := 0
	for _, t := range experiments.RunAll(seed) {
		fmt.Println(t.String())
		if !t.Holds {
			failed++
		}
	}
	fmt.Printf("%d/%d experiment shapes hold\n", len(experiments.IDs())-failed, len(experiments.IDs()))
	if failed > 0 {
		return 1
	}
	return 0
}
