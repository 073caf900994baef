package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const testEntities = 400

// wireOf is everything a workload sends in its warm-up and in the first
// requests of its timed phase, byte for byte.
func wireOf(t *testing.T, name string, d *dataset, seed int64) []byte {
	t.Helper()
	w, err := newWorkload(name, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, rs := range [][]*request{w.pre, w.warm[0], w.warm[1], w.replayOrder(5 * sessionLen)} {
		for _, r := range rs {
			b.Write(r.wire)
		}
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	nt := func(seed int64) []byte {
		var b bytes.Buffer
		if err := generate(seed, testEntities).writeNT(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if !bytes.Equal(nt(7), nt(7)) {
		t.Error("the same seed gave two datasets")
	}
	if bytes.Equal(nt(7), nt(8)) {
		t.Error("two seeds gave the same dataset")
	}
	if got, want := bytes.Count(nt(7), []byte("\n")), testEntities*triplesPerEntity; got != want {
		t.Errorf("dataset has %d lines, want %d", got, want)
	}
	d := generate(7, testEntities)
	for _, name := range workloadNames {
		if !bytes.Equal(wireOf(t, name, d, 7), wireOf(t, name, d, 7)) {
			t.Errorf("%s: the same seed gave two request streams", name)
		}
		// The writes of bulk_ingest are numbered, not drawn; its reads are drawn.
		if bytes.Equal(wireOf(t, name, d, 7), wireOf(t, name, d, 8)) {
			t.Errorf("%s: two seeds gave the same request stream", name)
		}
	}
}

func TestSessionTemplate(t *testing.T) {
	d := generate(3, testEntities)
	for _, buffered := range []bool{false, true} {
		s := newSessionGens(d, 3, 1, buffered, true)[0].next()
		if len(s) != sessionLen {
			t.Fatalf("session has %d requests, want %d", len(s), sessionLen)
		}
		if s[3].target != s[5].target {
			t.Errorf("zoom-out asks for %s, want the two-filter view %s", s[5].target, s[3].target)
		}
		streams := 0
		for _, r := range s {
			if r.kind == kFacetsStream || r.kind == kSparqlStream {
				streams++
			}
		}
		if want := map[bool]int{false: 2, true: 0}[buffered]; streams != want {
			t.Errorf("buffered=%t: %d streamed steps, want %d", buffered, streams, want)
		}
	}
}

func TestWriterRotation(t *testing.T) {
	w := &writer{tag: "t"}
	var ops []string
	for i := 0; i < 60; i++ {
		r := w.nextMixed()
		r.acked()
		switch {
		case r.kind == kIngest:
			ops = append(ops, "post")
		case r.deletes:
			ops = append(ops, "delete")
		default:
			ops = append(ops, "insert")
		}
	}
	if got := strings.Join(ops[deleteLag+1:deleteLag+7], " "); got != "insert delete post insert delete post" {
		t.Errorf("steady rotation is %q", got)
	}
	live := 0
	for _, b := range w.batches {
		if b.live {
			live += len(b.lines)
		}
	}
	if live != w.net {
		t.Errorf("live batches hold %d triples, the net of the acknowledgements is %d", live, w.net)
	}

	b := &writer{tag: "t"}
	for i := 0; i < deleteLag+1; i++ {
		if r := b.nextBulk(); r.kind != kIngest {
			t.Fatalf("write %d of the pre-roll is not a POST", i)
		}
	}
	if r := b.nextBulk(); !r.deletes || r.body != updateReq("DELETE", b.batches[0].lines, true).body {
		t.Error("the write after the pre-roll does not delete the oldest batch")
	}
	if r := b.nextBulk(); r.kind != kIngest {
		t.Error("a delete is not followed by a POST")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so the sort matters
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{21, 0.5, 11, true},
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(1..%d, %g) = %g, %t; want %g, %t", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestCompare(t *testing.T) {
	v := func(x float64) metric { return metric{Value: x} }
	for _, c := range []struct {
		a, b  metric
		lower bool
		want  string
	}{
		{v(100), v(109), true, "ok"},
		{v(100), v(111), true, "regressed"},
		{v(100), v(50), true, "ok"},
		{v(100), v(89), false, "regressed"},
		{v(100), v(150), false, "ok"},
		{v(100), v(0), true, "unresolved"}, // missing from B, not 100 % better
		{v(0), v(100), true, "unresolved"},
		{v(100), metric{Value: 300, Unresolved: true}, true, "unresolved"},
	} {
		if _, got := judge(c.a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("judge(%g, %g, lower=%t) = %s, want %s", c.a.Value, c.b.Value, c.lower, got, c.want)
		}
	}

	// Two runs compare only at the same seed, length and dataset size.
	write := func(name string, r result) string {
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, resultFile{Results: []result{r}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	m := map[string]metric{}
	for _, d := range endToEnd {
		m[d.name] = metric{Value: 1, Unit: d.unit}
	}
	full := result{Workload: "session_cold", Seed: 1, Seconds: fullSeconds, Entities: fullEntities, Correct: true, Metrics: m}
	smoke := full
	smoke.Seconds, smoke.Entities = smokeSeconds, smokeEntities
	a, b := write("a.json", full), write("b.json", smoke)
	if got := compareMain([]string{a, a}); got != 0 {
		t.Errorf("a run against itself: exit %d, want 0", got)
	}
	if got := compareMain([]string{a, b}); got != 2 {
		t.Errorf("a full run against a smoke run: exit %d, want 2", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "facet.facets", Start: 10, End: 90, Parent: 0},
		// Two scans that overlap: their union covers 20..60 of the parent.
		{Name: "store.scan", Start: 20, End: 50, Parent: 1, Callback: 12},
		{Name: "store.scan", Start: 40, End: 60, Parent: 1},
		{Name: "store.decode", Start: 70, End: 80, Parent: 1},
	}
	want := []int64{
		20,           // 100 - (90-10)
		80 - 50 + 12, // minus the union of the scans and the decode, plus the callbacks
		30 - 12,
		20,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	ns, n := selfByName(spans)
	if ns["store.scan"] != 38 || n["store.scan"] != 2 {
		t.Errorf("store.scan: %d ns over %d spans, want 38 over 2", ns["store.scan"], n["store.scan"])
	}
	var total int64
	for _, v := range got {
		total += v
	}
	// Overlapping children are the one case where self times do not add up
	// to the root: the overlap 40..50 is covered twice.
	if total != 100+10 {
		t.Errorf("self times sum to %d, want 110", total)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	a := tr.begin("request")
	b := tr.begin("cache.get")
	tr.end(b)
	tr.end(a)
	c := tr.begin("request")
	tr.end(c)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || tr.spans[c].Parent != -1 {
		t.Errorf("parents are %d, %d, %d", tr.spans[a].Parent, tr.spans[b].Parent, tr.spans[c].Parent)
	}
	if tr.spans[b].Req != 0 || tr.spans[c].Req != 1 {
		t.Errorf("request ids are %d and %d, want 0 and 1", tr.spans[b].Req, tr.spans[c].Req)
	}
	var none *tracer
	none.end(none.begin("request")) // a nil tracer records nothing
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	var decl benchmarkFile
	if err := readJSON("../../BENCHMARK.json", &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	declared := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q with unit %q is outside the driver's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(decl.Workloads) < 2 || len(decl.Workloads) > 8 || len(decl.EndToEnd) > 16 || len(decl.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(decl.Workloads), len(decl.EndToEnd), len(decl.PerLayer))
	}
	var names []string
	for _, w := range decl.Workloads {
		declared(w.Name, "x")
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program runs %v", names, workloadNames)
	}

	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program prints %d", len(decl.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, m := range decl.EndToEnd {
		declared(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s (%s) in BENCHMARK.json and %s (%s) in the program", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s must be declared in seconds, lower is better")
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program prints %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		declared(m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json and %s (%s) in the program", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %s is not named <layer>.<metric>", m.Name)
		}
	}
	if fmt.Sprint(decl.Paths) != "[bench/e2e]" || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", decl.Paths, decl.RunSeconds)
	}
}

// TestReportsPrintEveryDeclaredMetric runs the two report builders on an
// empty run: every declared name must come out, and no other.
func TestReportsPrintEveryDeclaredMetric(t *testing.T) {
	run := &httpRun{counts: map[string]float64{}}
	for _, c := range []struct {
		rep  *report
		defs []def
	}{
		{endToEndReport(run), endToEnd},
		{perLayerReport(run, &traceRun{}), perLayer},
	} {
		if len(c.rep.m) != len(c.defs) {
			t.Errorf("report has %d metrics, %d are declared", len(c.rep.m), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := c.rep.m[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s: in report %t, unit %q, want %q", d.name, ok, m.Unit, d.unit)
			}
		}
	}
}

func TestChecksAgainstModel(t *testing.T) {
	d := generate(5, testEntities)
	sel := selection{class: 0, cats: []catFilter{{1, 3}}}
	r := facetsReq(d, sel, false)
	ok := fmt.Sprintf(`{"count":%d,"facets":[]}`, d.count(sel))
	if err := check(d, r, &response{status: 200, body: []byte(ok)}); err != nil {
		t.Errorf("right count rejected: %v", err)
	}
	if err := check(d, r, &response{status: 200, body: []byte(`{"count":-1}`)}); err == nil {
		t.Error("wrong count accepted")
	}
	if err := check(d, r, &response{status: 429, body: []byte(ok)}); err == nil {
		t.Error("a shed request accepted")
	}
	stream := facetsReq(d, sel, true)
	body := `{"fraction":0.5,"scanned":10,"count":1,"facets":[]}` + "\n" + `{"done":true,"fraction":1,"result":` + ok + "}\n"
	if err := check(d, stream, &response{status: 200, body: []byte(body)}); err != nil {
		t.Errorf("complete stream rejected: %v", err)
	}
	if err := check(d, stream, &response{status: 200, body: []byte(strings.Replace(body, `"done":true`, `"done":false`, 1))}); err == nil {
		t.Error("a stream without its done line accepted")
	}
	q := sparqlReq(kSparqlStream, "/sparql/stream", "SELECT", 2)
	rows := `{"vars":["s"]}` + "\n{}\n{}\n" + `{"done":true,"rows":2}` + "\n"
	if err := check(d, q, &response{status: 200, body: []byte(rows)}); err != nil {
		t.Errorf("complete row stream rejected: %v", err)
	}
}

// TestClientReadsBothFramings checks the hand-written HTTP client against a
// real net/http server: a response with Content-Length, and a chunked one
// whose first line arrives before the rest.
func TestClientReadsBothFramings(t *testing.T) {
	gap := 30 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/stream" {
			fmt.Fprintln(w, `{"fraction":0.1}`)
			w.(http.Flusher).Flush()
			time.Sleep(gap)
			fmt.Fprintln(w, `{"done":true}`)
			return
		}
		w.Header().Set("ETag", `"abc"`)
		fmt.Fprint(w, strings.Repeat("x", 100_000))
	}))
	defer srv.Close()
	c := &conn{addr: strings.TrimPrefix(srv.URL, "http://")}
	defer c.close()
	for i := 0; i < 2; i++ { // twice: the connection is kept
		resp, err := c.do(get(kStats, "/plain", nil).finish().wire, time.Now())
		if err != nil || resp.status != 200 || len(resp.body) != 100_000 || string(resp.etag) != `"abc"` {
			t.Fatalf("plain: %v, status %d, %d bytes, ETag %s", err, resp.status, len(resp.body), resp.etag)
		}
		resp, err = c.do(get(kStats, "/stream", nil).finish().wire, time.Now())
		if err != nil || string(resp.body) != "{\"fraction\":0.1}\n{\"done\":true}\n" {
			t.Fatalf("stream: %v, body %q", err, resp.body)
		}
		if resp.firstLine >= gap || resp.total < gap {
			t.Errorf("first line after %v, last byte after %v, with %v between them", resp.firstLine, resp.total, gap)
		}
	}
}
