package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// The benchmark-regression mode: `benchharness -scenarios store` runs a
// pinned set of workloads through testing.Benchmark, writes the results as a
// BENCH_*.json artifact, and (with -gate) fails the process when a scenario
// regresses more than the gate ratio against the committed
// bench/baseline.json. CI runs this on every push; refresh the baseline with
// -update-baseline when a PR intentionally shifts performance.

// benchSchema identifies the artifact format.
const benchSchema = "lodviz-bench/1"

// defaultGateRatio fails a scenario at +25% over baseline. Override with
// BENCH_GATE.
const defaultGateRatio = 1.25

// benchResult is one scenario's measurement.
type benchResult struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`   // "ms" or "x"
	Better string  `json:"better"` // "lower": every scenario gates a cost
	// Max is an absolute ceiling enforced regardless of baseline (overhead
	// ratios encode their acceptance bar here); 0 = no ceiling.
	Max float64 `json:"max,omitempty"`
}

// benchFile is the artifact / baseline wire format.
type benchFile struct {
	Schema    string        `json:"schema"`
	Scenarios []benchResult `json:"scenarios"`
}

// msPerOp reports milliseconds per operation, best of three
// testing.Benchmark runs — the minimum filters scheduler and GC jitter,
// which a single run leaves well above the gate's 25% window.
func msPerOp(fn func(b *testing.B)) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(fn)
		ms := float64(r.NsPerOp()) / 1e6
		if i == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// benchStore builds the pinned BGP-join dataset (the same shape
// bench_test.go's BGP join benchmarks use).
func benchStore() *store.Store {
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 20000, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 13,
	})
	st, err := store.Load(triples)
	if err != nil {
		panic(err)
	}
	return st
}

func benchQuery(st *store.Store, query string, opt sparql.Options) func(b *testing.B) {
	parsed, err := sparql.Parse(query)
	if err != nil {
		panic(err)
	}
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sparql.EvalCtx(context.Background(), st, parsed, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// storeScenarios measures the dictionary/permutation execution engine: the
// three-pattern chain, the bound-predicate and bound-object joins, bulk
// load, and snapshot round-trip.
func storeScenarios() []benchResult {
	st := benchStore()
	chain := fmt.Sprintf(`SELECT ?e ?o ?v WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> ?v . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("num0")))
	boundP := fmt.Sprintf(`SELECT ?e ?c WHERE { ?e <%s> ?c . ?e <%s> ?c . }`,
		string(gen.Prop("cat0")), string(gen.Prop("cat1")))
	boundO := fmt.Sprintf(`SELECT ?e ?o WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> "category-2" . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("cat0")))

	seq := sparql.Options{Parallelism: 1}

	chainIDs := msPerOp(benchQuery(st, chain, seq))
	boundPIDs := msPerOp(benchQuery(st, boundP, seq))
	boundOIDs := msPerOp(benchQuery(st, boundO, seq))

	loadMS := msPerOp(func(b *testing.B) {
		triples := gen.EntityDataset(gen.EntityOptions{
			Entities: 10000, NumericProps: 2, CategoryProps: 1, LinkProps: 1, Seed: 12,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Load(triples); err != nil {
				b.Fatal(err)
			}
		}
	})
	snapMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := st.WriteSnapshot(discard{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	return []benchResult{
		{Name: "bgp_chain_ids_ms", Value: chainIDs, Unit: "ms", Better: "lower"},
		{Name: "bgp_bound_p_ids_ms", Value: boundPIDs, Unit: "ms", Better: "lower"},
		{Name: "bgp_bound_o_ids_ms", Value: boundOIDs, Unit: "ms", Better: "lower"},
		{Name: "store_load_ms", Value: loadMS, Unit: "ms", Better: "lower"},
		{Name: "snapshot_write_ms", Value: snapMS, Unit: "ms", Better: "lower"},
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// streamStoreRegress is bench_test.go's limit-pushdown dataset: one value
// triple per entity, so the single-pattern BGP has exactly n solutions.
func streamStoreRegress(n int) *store.Store {
	triples := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		triples = append(triples, rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://bench/e%d", i)),
			P: "http://bench/value",
			O: rdf.NewInteger(int64(i)),
		})
	}
	st, err := store.Load(triples)
	if err != nil {
		panic(err)
	}
	return st
}

// streamScenarios measures the streaming pipeline: LIMIT pushdown, the same
// query without its LIMIT (which materializes every solution) beside it,
// and the bounded ORDER BY top-k heap.
func streamScenarios() []benchResult {
	st := streamStoreRegress(120000)
	all := `SELECT ?s ?v WHERE { ?s <http://bench/value> ?v }`
	topk := all + ` ORDER BY DESC(?v) LIMIT 10`

	streamed := msPerOp(benchQuery(st, all+` LIMIT 10`, sparql.Options{}))
	materialized := msPerOp(benchQuery(st, all, sparql.Options{}))
	topkMS := msPerOp(benchQuery(st, topk, sparql.Options{}))

	return []benchResult{
		{Name: "limit_pushdown_streamed_ms", Value: streamed, Unit: "ms", Better: "lower"},
		{Name: "limit_pushdown_materialized_ms", Value: materialized, Unit: "ms", Better: "lower"},
		{Name: "orderby_topk_ms", Value: topkMS, Unit: "ms", Better: "lower"},
	}
}

// runRegress executes the selected scenario set, writes the artifact, and
// applies the baseline gate. Returns the process exit code.
func runRegress(set, out, baselinePath string, updateBaseline, gate bool) int {
	var results []benchResult
	switch set {
	case "store":
		results = storeScenarios()
	case "stream":
		results = streamScenarios()
	case "write":
		results = writeScenarios()
	case "explore":
		results = exploreScenarios()
	case "obs":
		results = obsScenarios()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scenarios set %q (want store, stream, write, explore, or obs)\n", set)
		return 2
	}
	for _, r := range results {
		fmt.Printf("%-34s %10.3f %s\n", r.Name, r.Value, r.Unit)
	}
	if out != "" {
		data, err := json.MarshalIndent(benchFile{Schema: benchSchema, Scenarios: results}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "marshal:", err)
			return 2
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write artifact:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", out)
	}

	failed := false
	// Absolute ceilings hold regardless of any baseline.
	for _, r := range results {
		if r.Max > 0 && r.Value > r.Max {
			fmt.Fprintf(os.Stderr, "FAIL %s: %.3f%s above the %.2f%s ceiling\n", r.Name, r.Value, r.Unit, r.Max, r.Unit)
			failed = true
		}
	}

	if updateBaseline {
		// Merge into the existing baseline: one file holds every scenario
		// set; this run replaces only its own entries.
		merged := benchFile{Schema: benchSchema}
		if prev, err := os.ReadFile(baselinePath); err == nil {
			var old benchFile
			if json.Unmarshal(prev, &old) == nil && old.Schema == benchSchema {
				fresh := map[string]bool{}
				for _, r := range results {
					fresh[r.Name] = true
				}
				for _, r := range old.Scenarios {
					if !fresh[r.Name] {
						merged.Scenarios = append(merged.Scenarios, r)
					}
				}
			}
		}
		merged.Scenarios = append(merged.Scenarios, results...)
		data, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "marshal baseline:", err)
			return 2
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write baseline:", err)
			return 2
		}
		fmt.Printf("updated baseline %s\n", baselinePath)
	} else if gate {
		if gateAgainstBaseline(results, baselinePath) {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// gateAgainstBaseline compares results to the committed baseline with a
// direction-aware ratio; returns true when any scenario regresses.
func gateAgainstBaseline(results []benchResult, baselinePath string) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "FAIL: baseline %s unreadable: %v\n", baselinePath, err)
		return true
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil || base.Schema != benchSchema {
		fmt.Fprintf(os.Stderr, "FAIL: baseline %s invalid (schema %q): %v\n", baselinePath, base.Schema, err)
		return true
	}
	ratio := defaultGateRatio
	if env := os.Getenv("BENCH_GATE"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "FAIL: BENCH_GATE=%q is not a ratio >= 1\n", env)
			return true
		}
		ratio = v
	}
	byName := map[string]benchResult{}
	for _, b := range base.Scenarios {
		byName[b.Name] = b
	}
	// Sub-tenth-millisecond timings are dominated by scheduler noise; an
	// absolute slack keeps the ratio gate meaningful for them.
	const msSlack = 0.05
	failed := false
	for _, r := range results {
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("INFO %s: no baseline entry (new scenario)\n", r.Name)
			continue
		}
		if r.Max > 0 {
			// Ceiling-gated scenario (an overhead ratio): the absolute
			// ceiling is the contract; baseline-relative ratios of ratios
			// are noise.
			continue
		}
		allowed := b.Value * ratio
		if r.Unit == "ms" && allowed < b.Value+msSlack {
			allowed = b.Value + msSlack
		}
		if r.Value > allowed {
			fmt.Fprintf(os.Stderr, "FAIL %s: %.3f%s vs baseline %.3f%s (allowed ≤ %.3f)\n",
				r.Name, r.Value, r.Unit, b.Value, b.Unit, allowed)
			failed = true
		}
	}
	if !failed {
		fmt.Printf("gate passed: %d scenarios within %.0f%% of baseline\n", len(results), (ratio-1)*100)
	}
	return failed
}
