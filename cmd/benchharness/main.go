// Benchharness is the benchmark-regression gate: it measures a pinned set
// of in-process scenarios, writes them as a BENCH_*.json artifact, and
// gates them against the committed baseline (see regress.go).
//
// Usage:
//
//	benchharness -scenarios store -out BENCH_store.json -gate
//	benchharness -scenarios store -update-baseline   # refresh bench/baseline.json
//
// The scenario sets are store, stream, write, explore and obs.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	scenarios := flag.String("scenarios", "", "regression scenario set (store, stream, write, explore, or obs)")
	out := flag.String("out", "", "write scenario results to this JSON artifact")
	baseline := flag.String("baseline", "bench/baseline.json", "baseline file for -gate / -update-baseline")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the baseline from this run's results")
	gate := flag.Bool("gate", false, "fail when a scenario regresses past the gate ratio (BENCH_GATE, default 1.25)")
	flag.Parse()

	if *scenarios == "" {
		fmt.Fprintln(os.Stderr, "benchharness: -scenarios is required (store, stream, write, explore, or obs)")
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(runRegress(*scenarios, *out, *baseline, *updateBaseline, *gate))
}
