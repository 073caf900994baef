// Command e2e is the end-to-end benchmark of lodvizd: it builds the server,
// generates a seeded dataset, and for each workload spawns a fresh server
// and drives it over loopback HTTP, checking every response against the
// rows it generated. With -trace 1 it also replays the start of the workload
// in process, layer by layer, to say where the time goes. See README.md.
//
// Usage, from the root of the repository:
//
//	bash bench/e2e/run.sh [-workload all|<name>] [-seed n] [-seconds s] [-trace 0|1] [-smoke]
//	bash bench/e2e/run.sh compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
)

// result is the outcome of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Entities   int               `json:"entities"`
	Trace      bool              `json:"trace"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FirstError string            `json:"first_error,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

// resultFile is what a run leaves in out/ and `compare` reads.
type resultFile struct {
	Results []result `json:"results"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// The sizes of a run: what fits the driver's budget of about half a minute
// a run, and what -smoke runs in place of it.
const (
	fullEntities, smokeEntities = 10000, 2000
	fullSeconds, smokeSeconds   = 20, 2
	// The server is set up three times in a run; setup_s is the median.
	fullSetups, smokeSetups = 3, 1
)

func run() error {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
		seed    = flag.Int64("seed", 1, "seed of the dataset and of the request streams")
		seconds = flag.Float64("seconds", fullSeconds, "length of the timed phase of each workload")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics, from /metrics and an in-process traced replay, in place of the end-to-end ones")
		smoke   = flag.Bool("smoke", false, "a quick pass for CI: 2000 entities, 2 s per workload, one set-up")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	entities, setups := fullEntities, fullSetups
	if *smoke {
		entities, *seconds, setups = smokeEntities, smokeSeconds, smokeSetups
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	names := workloadNames
	if *name != "all" {
		if !slices.Contains(workloadNames, *name) {
			return fmt.Errorf("unknown workload %q (want all or one of %v)", *name, workloadNames)
		}
		names = []string{*name}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "bench", "e2e", "out")

	// Binaries are kept between runs; everything else lives in one
	// directory that goes when the run ends, however it ends.
	build := filepath.Join(root, ".bench_build", "e2e")
	e := &env{
		dir: filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid())), seed: *seed}
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(e.dir) }() // scratch files only
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.ctx, e.procs = ctx, &sync.WaitGroup{}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel() // kills the server
		e.procs.Wait()
		_ = os.RemoveAll(e.dir)
		os.Exit(130)
	}()

	if e.bin, err = buildServer(root, filepath.Join(build, "bin")); err != nil {
		return err
	}
	e.d = generate(*seed, entities)
	e.data = filepath.Join(e.dir, "data.nt")
	if err := writeDataset(e.d, e.data); err != nil {
		return err
	}

	var file resultFile
	for _, n := range names {
		res, err := runWorkload(e, n, *seconds, *trace == 1, setups, outDir)
		if err != nil {
			return err
		}
		file.Results = append(file.Results, res)
		// One line per workload; with one workload it is the last line,
		// which is the one the driver reads.
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)), file)
}

// driverLine is the object the driver's contract asks for: exactly these
// keys, and a value and a unit for each metric.
func driverLine(res result) map[string]any {
	metrics := map[string]any{}
	for name, m := range res.Metrics {
		metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// runWorkload runs one workload over HTTP and, with trace, replays it in
// process; it prints the metrics and returns them.
func runWorkload(e *env, name string, seconds float64, trace bool, setups int, outDir string) (result, error) {
	res := result{Workload: name, Seed: e.seed, Seconds: seconds, Entities: e.d.entities(), Trace: trace}
	if trace {
		setups = 1 // setup_s is not among the metrics of a traced run
	}
	run, err := runHTTP(e, name, seconds, setups)
	if err != nil {
		return res, err
	}
	rep := endToEndReport(run)
	fmt.Printf("%s seed=%d seconds=%g entities=%d\n", name, e.seed, seconds, e.d.entities())
	rep.print(os.Stdout)
	if trace {
		tr, err := runTrace(e, name)
		if err != nil {
			return res, err
		}
		if err := writeJSON(filepath.Join(outDir, "trace-"+name+".json"), tr.spans); err != nil {
			return res, err
		}
		rep = perLayerReport(run, tr)
		rep.print(os.Stdout)
	}
	res.Metrics = rep.m
	res.Attempted, res.Failed = run.ok+run.extraOK+run.failed, run.failed
	res.Correct = run.failed == 0
	for _, m := range rep.m {
		if m.Unresolved && !trace {
			res.Correct = false
		}
	}
	if run.firstErr != nil {
		res.FirstError = run.firstErr.Error()
		fmt.Fprintf(os.Stderr, "e2e: %s: %d of %d requests failed, first: %v\n", name, res.Failed, res.Attempted, run.firstErr)
	}
	return res, nil
}

// runTrace replays the start of the workload in process three times: through
// the server's handler, through the layers without spans, and through the
// layers with spans.
func runTrace(e *env, name string) (*traceRun, error) {
	w, err := newWorkload(name, e.d, e.seed)
	if err != nil {
		return nil, err
	}
	warm := append(append(append([]*request(nil), w.pre...), w.warm[0]...), w.warm[1]...)
	timed := w.replayOrder(replayRequests)
	times, err := handlerPass(e, warm, timed)
	if err != nil {
		return nil, err
	}
	timed = timed[:len(times)]
	tr := &traceRun{}
	for _, t := range times {
		tr.handler = append(tr.handler, ms(t))
	}
	_, untraced, err := decomposedPass(e, nil, warm, timed)
	if err != nil {
		return nil, err
	}
	t := newTracer()
	obs, traced, err := decomposedPass(e, t, warm, timed)
	if err != nil {
		return nil, err
	}
	tr.untraced, tr.traced, tr.obs, tr.spans = ms(untraced), ms(traced), obs, t.spans
	tr.selfNS, tr.calls = selfByName(t.spans)
	for name, ns := range tr.selfNS {
		if name != "request" {
			tr.layerNS += ns
		}
	}
	return tr, nil
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
