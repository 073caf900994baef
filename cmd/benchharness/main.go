// Benchharness is the paired benchmark gate: it judges the go test
// benchmarks of one revision by their own code at another, on the same
// host, in alternated runs.
//
// Usage:
//
//	benchharness -base <rev> [-head <rev>] [-bench <regexp>] [packages]
//
// `make bench-compare BASE=<rev> [HEAD=<rev>] [BENCH=<regexp>] [PKG=<packages>]`
// runs it. Both revisions are exported with `git archive` under
// .bench_build/compare/, and each package's test binary is built once per
// side with `go test -c`. Then the binaries run in alternated pairs, the
// side that goes first swapped from one pair to the next, each run being
// `-test.run '^$' -test.bench <regexp> -test.benchmem`.
//
// For each benchmark it prints the median over pairs of head÷base ns/op,
// the number of pairs head won, and the medians of B/op and allocs/op, and
// writes the same verdicts to .bench_build/compare/verdict.json. It exits 1
// when a median ratio is over maxRatio. A benchmark only head has is
// reported as new and not judged; one that base has and head lacks, a
// regexp that matches nothing, and a build or run that fails exit 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

const (
	// pairs is the number of base/head run pairs per benchmark.
	pairs = 10
	// maxRatio refuses a benchmark whose median head÷base ns/op is over it.
	maxRatio = 1.25
	// workDir, under the repository root, holds the two exported trees
	// while the comparison runs, and verdict.json after it.
	workDir = ".bench_build/compare"
)

// The two sides of a comparison, as indexes into per-side arrays.
const (
	base = iota
	head
)

var sideNames = [2]string{"base", "head"}

func main() {
	baseRev := flag.String("base", "", "the revision to judge against (required)")
	headRev := flag.String("head", "HEAD", "the revision judged")
	bench := flag.String("bench", ".", "the benchmarks to run, as for go test -bench")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: benchharness -base <rev> [-head <rev>] [-bench <regexp>] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *baseRev == "" {
		flag.Usage()
		os.Exit(2)
	}
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	code, err := compare([2]string{*baseRev, *headRev}, *bench, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchharness:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// compare exports and builds both revisions, runs the pairs and reports
// the verdicts. It returns the process exit code.
func compare(revs [2]string, bench string, pkgs []string) (int, error) {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return 0, fmt.Errorf("finding the repository root: %w", err)
	}
	work := filepath.Join(strings.TrimSpace(string(out)), workDir)
	var shas [2]string
	// bins[side][i] is the test binary of pkgs[i] at that side, "" where the
	// side has no tests in that package.
	var bins [2][]string
	for s := range revs {
		tree := filepath.Join(work, sideNames[s])
		defer os.RemoveAll(tree)
		if shas[s], err = exportTree(revs[s], tree); err != nil {
			return 0, err
		}
		for _, pkg := range pkgs {
			bin, err := buildTests(tree, pkg)
			if err != nil {
				return 0, err
			}
			bins[s] = append(bins[s], bin)
		}
	}

	var runs [2][]map[string]metrics
	for p := 0; p < pairs; p++ {
		fmt.Fprintf(os.Stderr, "pair %d/%d\n", p+1, pairs)
		for s := range runs {
			runs[s] = append(runs[s], map[string]metrics{})
		}
		for i, pkg := range pkgs {
			for _, s := range order(p) {
				if bins[s][i] == "" {
					continue
				}
				res, err := runBench(bins[s][i], bench)
				if err != nil {
					return 0, fmt.Errorf("%s %s: %w", sideNames[s], pkg, err)
				}
				for name, m := range res {
					runs[s][p][pkg+" "+name] = m
				}
			}
		}
	}

	verdicts := judge(runs[base], runs[head])
	report(os.Stdout, verdicts)
	data, err := json.MarshalIndent(struct {
		Base       string    `json:"base"`
		Head       string    `json:"head"`
		Pairs      int       `json:"pairs"`
		MaxRatio   float64   `json:"max_ratio"`
		Benchmarks []verdict `json:"benchmarks"`
	}{shas[base], shas[head], pairs, maxRatio, verdicts}, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(work, "verdict.json"), append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	return exitCode(verdicts), nil
}

// exportTree writes rev's files into dir (emptied first) and returns the
// commit it names.
func exportTree(rev, dir string) (string, error) {
	out, err := exec.Command("git", "rev-parse", "--verify", rev+"^{commit}").Output()
	if err != nil {
		return "", fmt.Errorf("resolving %q: %w", rev, err)
	}
	sha := strings.TrimSpace(string(out))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", sha)
	untar := exec.Command("tar", "-x", "-C", dir)
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return "", err
	}
	if err := untar.Start(); err != nil {
		return "", fmt.Errorf("exporting %s: %w", rev, err)
	}
	archiveErr := archive.Run()
	if err := errors.Join(archiveErr, untar.Wait()); err != nil {
		return "", fmt.Errorf("exporting %s: %w", rev, err)
	}
	return sha, nil
}

// buildTests compiles the tests of pkg (a directory relative to tree) into
// bench.test in that directory and returns its path; "" when the tree has
// no such directory or no tests there.
func buildTests(tree, pkg string) (string, error) {
	dir := filepath.Join(tree, pkg)
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return "", nil
	}
	bin := filepath.Join(dir, "bench.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building the tests of %s in %s: %w\n%s", pkg, tree, err, out)
	}
	if _, err := os.Stat(bin); err != nil {
		return "", nil
	}
	return bin, nil
}

// runBench runs the benchmarks of one test binary from its package
// directory, as go test does, and parses what they print.
func runBench(bin, bench string) (map[string]metrics, error) {
	cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", bench, "-test.benchmem", "-test.timeout", "10m")
	cmd.Dir = filepath.Dir(bin)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, out)
	}
	return parse(string(out)), nil
}

// order is the order the two sides run in pair p: base first in even
// pairs, head first in odd ones, so neither side always runs on the
// machine the other has just warmed.
func order(p int) [2]int {
	if p%2 == 0 {
		return [2]int{base, head}
	}
	return [2]int{head, base}
}

// metrics maps a unit — ns/op, B/op, allocs/op or one a benchmark reports
// with b.ReportMetric — to its value in one run.
type metrics map[string]float64

// procSuffix is the -N that go test appends to a benchmark's name when
// GOMAXPROCS is N > 1.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// parse reads the result lines of `go test -bench` output: a name, an
// iteration count, then value/unit pairs. Other lines are skipped.
func parse(out string) map[string]metrics {
	res := map[string]metrics{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		m := metrics{}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				m = nil
				break
			}
			m[f[i+1]] = v
		}
		if m != nil {
			res[procSuffix.ReplaceAllString(f[0], "")] = m
		}
	}
	return res
}

// A verdict is one benchmark's judgment over all pairs.
type verdict struct {
	Name string `json:"name"`
	// Status is "pass", "slower" (the median ratio is over maxRatio), "new"
	// (only head has it) or "missing" (head lacks it).
	Status string `json:"status"`
	// Ratio is the median of Ratios, each pair's head÷base ns/op, and
	// HeadWins the pairs in which head took less time.
	Ratio    float64   `json:"ratio,omitempty"`
	Ratios   []float64 `json:"ratios,omitempty"`
	HeadWins int       `json:"head_wins"`
	Pairs    int       `json:"pairs"`
	// Base and Head hold each side's median of every unit over the pairs.
	Base metrics `json:"base,omitempty"`
	Head metrics `json:"head,omitempty"`
}

// judge turns the per-pair results of both sides (baseRuns[p] and
// headRuns[p] ran in pair p) into one verdict per benchmark, sorted by
// name.
func judge(baseRuns, headRuns []map[string]metrics) []verdict {
	names := map[string]bool{}
	for _, runs := range [][]map[string]metrics{baseRuns, headRuns} {
		for _, r := range runs {
			for name := range r {
				names[name] = true
			}
		}
	}
	var out []verdict
	for name := range names {
		v := verdict{Name: name, Base: medians(baseRuns, name), Head: medians(headRuns, name)}
		for p := range baseRuns {
			b, okB := baseRuns[p][name]
			h, okH := headRuns[p][name]
			if !okB || !okH || b["ns/op"] <= 0 {
				continue
			}
			v.Ratios = append(v.Ratios, h["ns/op"]/b["ns/op"])
			if h["ns/op"] < b["ns/op"] {
				v.HeadWins++
			}
		}
		v.Pairs = len(v.Ratios)
		switch {
		case len(v.Head) == 0:
			v.Status = "missing"
		case len(v.Base) == 0:
			v.Status = "new"
		default:
			v.Ratio = median(v.Ratios)
			v.Status = "pass"
			if v.Ratio > maxRatio {
				v.Status = "slower"
			}
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// medians is the median of each unit of benchmark name over the runs that
// have it; nil when none has.
func medians(runs []map[string]metrics, name string) metrics {
	vals := map[string][]float64{}
	for _, r := range runs {
		for unit, v := range r[name] {
			vals[unit] = append(vals[unit], v)
		}
	}
	if len(vals) == 0 {
		return nil
	}
	m := metrics{}
	for unit, vs := range vals {
		m[unit] = median(vs)
	}
	return m
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// exitCode is 2 when a benchmark is missing at head or none ran, 1 when
// one is slower past the bound, else 0.
func exitCode(vs []verdict) int {
	if len(vs) == 0 {
		return 2
	}
	code := 0
	for _, v := range vs {
		switch v.Status {
		case "missing":
			return 2
		case "slower":
			code = 1
		}
	}
	return code
}

func report(w io.Writer, vs []verdict) {
	if len(vs) == 0 {
		fmt.Fprintln(w, "no benchmark matched")
		return
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\thead÷base ns/op\thead won\tB/op base → head\tallocs/op base → head\tverdict\n")
	for _, v := range vs {
		ratio, won := "-", "-"
		if v.Status == "pass" || v.Status == "slower" {
			ratio, won = fmt.Sprintf("%.3f", v.Ratio), fmt.Sprintf("%d/%d", v.HeadWins, v.Pairs)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s → %s\t%s → %s\t%s\n", v.Name, ratio, won,
			unit(v.Base, "B/op"), unit(v.Head, "B/op"), unit(v.Base, "allocs/op"), unit(v.Head, "allocs/op"), v.Status)
	}
	tw.Flush()
	fmt.Fprintf(w, "%d pairs; a median ratio over %.2f is refused\n", pairs, maxRatio)
}

func unit(m metrics, u string) string {
	if v, ok := m[u]; ok {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return "-"
}
