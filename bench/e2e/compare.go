package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json, the declaration the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareMain prints, for each workload and end-to-end metric that both
// result files hold, the two values, by how much B is worse than A as a
// share of A, the bound, and a verdict. It returns 1 when any metric
// regressed beyond its bound, 2 when it cannot compare: a file is missing,
// or two runs of a workload differ in seed, length or dataset size.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2e compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	var decl benchmarkFile
	if err == nil {
		err = readJSON(filepath.Join(root, "BENCHMARK.json"), &decl)
	}
	var a, b resultFile
	if err == nil {
		err = readJSON(args[0], &a)
	}
	if err == nil {
		err = readJSON(args[1], &b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e compare:", err)
		return 2
	}
	regressed, compared := false, 0
	for _, ra := range a.Results {
		for _, rb := range b.Results {
			if ra.Workload != rb.Workload || ra.Trace || rb.Trace {
				continue
			}
			if ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || ra.Entities != rb.Entities {
				fmt.Fprintf(os.Stderr, "e2e compare: %s: A is seed %d, %g s, %d entities and B is seed %d, %g s, %d entities\n",
					ra.Workload, ra.Seed, ra.Seconds, ra.Entities, rb.Seed, rb.Seconds, rb.Entities)
				return 2
			}
			if compared++; compared == 1 {
				fmt.Printf("%-13s %-22s %12s %12s %8s %6s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
			}
			for _, m := range decl.EndToEnd {
				ma, mb := ra.Metrics[m.Name], rb.Metrics[m.Name]
				worse, verdict := judge(ma, mb, m.Better == "lower", m.Bound)
				regressed = regressed || verdict == "regressed"
				fmt.Printf("%-13s %-22s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
					ra.Workload, m.Name, ma.Value, mb.Value, 100*worse, 100*m.Bound, verdict)
			}
			if !ra.Correct || !rb.Correct {
				fmt.Printf("%-13s a run was not correct: A failed %d of %d, B failed %d of %d\n",
					ra.Workload, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
				regressed = true
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "e2e compare: the two files share no untraced workload")
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// judge says by how much b is worse than a, as a share of a, and whether
// that is within the bound. No end-to-end metric is ever 0: one that reads 0
// is missing from its file or was printed unresolved.
func judge(a, b metric, lowerIsBetter bool, bound float64) (worse float64, verdict string) {
	worse = ratio(b.Value-a.Value, a.Value)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case a.Unresolved || b.Unresolved || a.Value == 0 || b.Value == 0:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}
