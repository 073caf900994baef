package main

import (
	"reflect"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: github.com/lodviz/lodviz
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE12StoreLoad-2              	      52	  22111666 ns/op	     50000 triples/op	 9342113 B/op	   60211 allocs/op
BenchmarkWriteSession/wal_sync_readers-2         	       3	   7551968 ns/op	 3085600 B/op	   20270 allocs/op
BenchmarkObsOverhead-16   	     243	   4574838 ns/op	         0.9737 overhead-x
BenchmarkNoProcs	 1000000	      1012 ns/op
BenchmarkFailed
--- FAIL: BenchmarkFailed
    bench_test.go:12: no rows
PASS
ok  	github.com/lodviz/lodviz	4.211s
`

func TestParse(t *testing.T) {
	got := parse(benchOutput)
	want := map[string]metrics{
		"BenchmarkE12StoreLoad":                  {"ns/op": 22111666, "triples/op": 50000, "B/op": 9342113, "allocs/op": 60211},
		"BenchmarkWriteSession/wal_sync_readers": {"ns/op": 7551968, "B/op": 3085600, "allocs/op": 20270},
		"BenchmarkObsOverhead":                   {"ns/op": 4574838, "overhead-x": 0.9737},
		"BenchmarkNoProcs":                       {"ns/op": 1012},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parse:\n got %v\nwant %v", got, want)
	}
}

// pairRuns gives every pair the same ns/op per benchmark on each side.
func pairRuns(nsPerOp map[string]float64) []map[string]metrics {
	runs := make([]map[string]metrics, pairs)
	for p := range runs {
		runs[p] = map[string]metrics{}
		for name, ns := range nsPerOp {
			runs[p][name] = metrics{"ns/op": ns, "B/op": 64, "allocs/op": 2}
		}
	}
	return runs
}

func TestJudge(t *testing.T) {
	baseRuns := pairRuns(map[string]float64{"same": 1000, "slower": 1000, "faster": 1000, "gone": 1000})
	headRuns := pairRuns(map[string]float64{"same": 1000, "slower": 1300, "faster": 800, "added": 500})
	got := map[string]verdict{}
	for _, v := range judge(baseRuns, headRuns) {
		got[v.Name] = v
	}
	for name, want := range map[string]struct {
		status string
		ratio  float64
		wins   int
	}{
		"same":   {"pass", 1, 0},
		"slower": {"slower", 1.3, 0},
		"faster": {"pass", 0.8, pairs},
		"added":  {"new", 0, 0},
		"gone":   {"missing", 0, 0},
	} {
		v := got[name]
		if v.Status != want.status || v.Ratio != want.ratio || v.HeadWins != want.wins {
			t.Errorf("%s: status %q ratio %v head won %d, want %q %v %d", name, v.Status, v.Ratio, v.HeadWins, want.status, want.ratio, want.wins)
		}
	}
	if v := got["same"]; v.Pairs != pairs || v.Head["B/op"] != 64 || v.Base["allocs/op"] != 2 {
		t.Errorf("same: %+v", v)
	}

	for _, c := range []struct {
		names []string
		code  int
	}{
		{[]string{"same", "faster", "added"}, 0},
		{[]string{"same", "slower"}, 1},
		{[]string{"slower", "gone"}, 2},
		{nil, 2},
	} {
		var vs []verdict
		for _, name := range c.names {
			vs = append(vs, got[name])
		}
		if code := exitCode(vs); code != c.code {
			t.Errorf("exit code over %v = %d, want %d", c.names, code, c.code)
		}
	}
}

// TestJudgeMedian: a ratio is judged by its median over pairs, so one
// outlying pair neither refuses a benchmark nor passes one.
func TestJudgeMedian(t *testing.T) {
	baseRuns := pairRuns(map[string]float64{"noisy": 1000, "slow": 1000})
	headRuns := pairRuns(map[string]float64{"noisy": 1000, "slow": 1300})
	headRuns[3]["noisy"] = metrics{"ns/op": 5000}
	headRuns[4]["slow"] = metrics{"ns/op": 900}
	for _, v := range judge(baseRuns, headRuns) {
		if want := map[string]string{"noisy": "pass", "slow": "slower"}[v.Name]; v.Status != want {
			t.Errorf("%s: %s (ratio %v), want %s", v.Name, v.Status, v.Ratio, want)
		}
	}
}

func TestOrderAlternates(t *testing.T) {
	for p, want := range [][2]int{{base, head}, {head, base}, {base, head}, {head, base}} {
		if got := order(p); got != want {
			t.Errorf("order(%d) = %v, want %v", p, got, want)
		}
	}
}
