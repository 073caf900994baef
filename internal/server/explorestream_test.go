package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// streamFinalLine mirrors exploreStreamFinal with the result kept raw so
// tests can compare it byte-for-byte against the buffered endpoint's body.
type streamFinalLine struct {
	Done     bool            `json:"done"`
	Fraction float64         `json:"fraction"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// readStream drains an NDJSON exploration stream: all batch lines, then the
// final done/error line.
func readStream(t *testing.T, body io.Reader) (batches []json.RawMessage, final streamFinalLine) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	got := false
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if probe.Done || probe.Error != "" {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatal(err)
			}
			got = true
			break
		}
		batches = append(batches, append(json.RawMessage(nil), line...))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !got {
		t.Fatal("stream ended without a done/error line")
	}
	return batches, final
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestFacetsStreamFinalMatchesBuffered verifies the convergence contract on
// the wire: the stream's final result must be byte-identical to the buffered
// /facets response, over a store whose runs are lent and over one whose runs
// are copied past a tombstone. The cache is disabled so both sides compute
// independently.
func TestFacetsStreamFinalMatchesBuffered(t *testing.T) {
	tombstoned := gen.MiniLODStore()
	if !tombstoned.Delete(rdf.T(rdf.IRI(exNS+"athens"), rdf.IRI(exNS+"country"), rdf.IRI(exNS+"greece"))) {
		t.Fatal("no athens country triple to delete")
	}
	for _, st := range []*store.Store{gen.MiniLODStore(), tombstoned} {
		ts := httptest.NewServer(New(st, Config{Logger: discardLogger(), CacheCapacity: -1}).Handler())
		t.Cleanup(ts.Close)
		for _, params := range []string{"", "?max=3", "?filter=" + url.QueryEscape(exNS+"country=<"+exNS+"greece>")} {
			resp, err := http.Get(ts.URL + "/facets/stream" + params)
			if err != nil {
				t.Fatal(err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != streamContentType {
				t.Fatalf("Content-Type = %q, want %q", ct, streamContentType)
			}
			if xc := resp.Header.Get("X-Cache"); xc != "BYPASS" {
				t.Fatalf("X-Cache = %q, want BYPASS", xc)
			}
			_, final := readStream(t, resp.Body)
			resp.Body.Close()
			if !final.Done || final.Error != "" || final.Fraction != 1 {
				t.Fatalf("final line = %+v, want done at fraction 1", final)
			}

			bresp, body := getBody(t, ts.URL+"/facets"+params)
			if bresp.StatusCode != http.StatusOK {
				t.Fatalf("buffered status = %d", bresp.StatusCode)
			}
			if string(final.Result) != strings.TrimSpace(string(body)) {
				t.Fatalf("params %q: stream final differs from buffered body:\nstream:   %s\nbuffered: %s",
					params, final.Result, body)
			}
		}
	}
}

func TestStatsStreamFinalMatchesBuffered(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheCapacity: -1})
	resp, err := http.Get(ts.URL + "/stats/stream")
	if err != nil {
		t.Fatal(err)
	}
	_, final := readStream(t, resp.Body)
	resp.Body.Close()
	if !final.Done || final.Error != "" {
		t.Fatalf("final line = %+v, want done", final)
	}
	bresp, body := getBody(t, ts.URL+"/stats")
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status = %d", bresp.StatusCode)
	}
	if string(final.Result) != strings.TrimSpace(string(body)) {
		t.Fatalf("stream final differs from buffered body:\nstream:   %s\nbuffered: %s", final.Result, body)
	}
}

// TestStreamFillsBufferedCache: a completed stream publishes its exact result
// under the buffered endpoint's cache key, so the next buffered request is a
// HIT without ever computing.
func TestStreamFillsBufferedCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, ep := range []struct{ stream, buffered string }{
		{"/facets/stream", "/facets"},
		{"/stats/stream", "/stats"},
	} {
		resp, err := http.Get(ts.URL + ep.stream)
		if err != nil {
			t.Fatal(err)
		}
		_, final := readStream(t, resp.Body)
		resp.Body.Close()
		if !final.Done {
			t.Fatalf("%s did not complete", ep.stream)
		}
		bresp, body := getBody(t, ts.URL+ep.buffered)
		if xc := bresp.Header.Get("X-Cache"); xc != "HIT" {
			t.Fatalf("%s after %s: X-Cache = %q, want HIT", ep.buffered, ep.stream, xc)
		}
		if string(final.Result) != strings.TrimSpace(string(body)) {
			t.Fatalf("%s cache fill served different bytes than the stream final", ep.buffered)
		}
	}
}

// TestFacetsStreamProbedViewIsOneLine: on a store of 18 600 statements, a
// view of 10 entities is under the probe threshold, so /facets/stream sends
// its done line alone — byte-equal to /facets on a cache-off server — fills
// the cache for the next /facets and counts one line delivered; the
// unfiltered view (6 000 entities) still sends estimates before done.
func TestFacetsStreamProbedViewIsOneLine(t *testing.T) {
	st := synthStore(t, 6000)
	s := New(st, Config{Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	uncached := httptest.NewServer(New(st, Config{Logger: discardLogger(), CacheCapacity: -1}).Handler())
	t.Cleanup(uncached.Close)

	filter := "?filter=" + url.QueryEscape("<http://bench.example/ref>=<http://bench.example/hub/3>")
	rows := s.met.streamRows.With("/facets/stream")
	before := rows.Value()
	_, stream := getBody(t, ts.URL+"/facets/stream"+filter)
	_, want := getBody(t, uncached.URL+"/facets"+filter)
	if line := `{"done":true,"fraction":1,"result":` + strings.TrimSpace(string(want)) + "}\n"; string(stream) != line {
		t.Fatalf("probed view streamed\n%s\nwant the one line\n%s", stream, line)
	}
	if !strings.Contains(string(want), `"count":10,`) {
		t.Fatalf("/facets body %s, want a count of 10", want)
	}
	if got := rows.Value() - before; got != 1 {
		t.Errorf("lodviz_http_stream_rows_total moved by %d, want 1", got)
	}
	if resp, body := getBody(t, ts.URL+"/facets"+filter); resp.Header.Get("X-Cache") != "HIT" || string(body) != string(want) {
		t.Fatalf("/facets after the stream: X-Cache %q, body equal: %v; want HIT with the same body",
			resp.Header.Get("X-Cache"), string(body) == string(want))
	}

	resp, err := http.Get(ts.URL + "/facets/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	batches, final := readStream(t, resp.Body)
	if len(batches) == 0 || !final.Done {
		t.Fatalf("unfiltered stream: %d batches, done %v; want estimates before done", len(batches), final.Done)
	}
}

// termsGatedSource wraps the store and holds every Terms call after the
// first free until released. A walk-side /facets/stream decodes once per
// batch it emits and once more for its final answer, so with free batches
// let through the stream is provably held right after the last of them.
type termsGatedSource struct {
	*store.Store
	free    int64
	calls   atomic.Int64
	release chan struct{}
}

func (g *termsGatedSource) Terms(ids []store.ID) []rdf.Term {
	if g.calls.Add(1) > g.free {
		<-g.release
	}
	return g.Store.Terms(ids)
}

// TestFacetsStreamFirstBatchArrivesMidScan is the progressive-delivery proof:
// over 6 000 entities in 18 600 statements — more than one 16 384-statement
// page — with every decode after the first batch's held, the client still
// receives a parseable approximate batch (0 < fraction < 1, one page
// scanned, the exact count), then, once the gate opens, the stream
// converges to done.
func TestFacetsStreamFirstBatchArrivesMidScan(t *testing.T) {
	st := synthStore(t, 6000)
	gated := &termsGatedSource{Store: st, free: 1, release: make(chan struct{})}
	s := New(st, Config{Logger: discardLogger(), CacheCapacity: -1, source: gated})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	released := false
	defer func() {
		// Unblock a held decode even if an assertion bails out early.
		if !released {
			close(gated.release)
		}
	}()

	resp, err := http.Get(ts.URL + "/facets/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)

	// The first approximate batch must arrive while the stream is provably
	// held: the final answer needs a second decode, and the gate is shut.
	firstLine, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first batch: %v", err)
	}
	var batch struct {
		Fraction float64         `json:"fraction"`
		Scanned  int             `json:"scanned"`
		Count    int             `json:"count"`
		Facets   json.RawMessage `json:"facets"`
		Done     bool            `json:"done"`
	}
	if err := json.Unmarshal(firstLine, &batch); err != nil {
		t.Fatalf("first line %q: %v", firstLine, err)
	}
	if batch.Done {
		t.Fatal("first line is already the final result; the gate never held the scan")
	}
	if batch.Fraction <= 0 || batch.Fraction >= 1 {
		t.Fatalf("first batch fraction = %v, want in (0,1)", batch.Fraction)
	}
	if batch.Scanned != explore.DefaultPageSize {
		t.Fatalf("first batch scanned = %d, want exactly one page of %d", batch.Scanned, explore.DefaultPageSize)
	}
	if batch.Count != 6000 {
		t.Fatalf("count = %d, want the exact match-set size 6000 from the first batch on", batch.Count)
	}

	// Open the gate; the stream must now refine to the exact final answer.
	close(gated.release)
	released = true
	_, final := readStream(t, br)
	if !final.Done || final.Error != "" {
		t.Fatalf("final = %+v, want done", final)
	}
	var parsed struct {
		Count  int `json:"count"`
		Facets []struct {
			Predicate string `json:"predicate"`
		} `json:"facets"`
	}
	if err := json.Unmarshal(final.Result, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Count != batch.Count {
		t.Fatalf("final count %d != first-batch count %d (count is exact from the start)", parsed.Count, batch.Count)
	}
	if len(parsed.Facets) == 0 {
		t.Fatal("final result carries no facets")
	}
}

// TestNeighborhoodSampling: identical (sample, seed) requests must serve
// identical bodies with the cache disabled, and sample validation rejects
// non-positive values.
func TestNeighborhoodSampling(t *testing.T) {
	hub := rdf.IRI("http://x/hub")
	var triples []rdf.Triple
	for i := 0; i < 40; i++ {
		leaf := rdf.IRI(fmt.Sprintf("http://x/leaf%d", i))
		if i%2 == 0 {
			triples = append(triples, rdf.Triple{S: hub, P: "http://x/out", O: leaf})
		} else {
			triples = append(triples, rdf.Triple{S: leaf, P: "http://x/in", O: hub})
		}
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Config{Logger: discardLogger(), CacheCapacity: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	q := "/graph/neighborhood?node=" + url.QueryEscape("<http://x/hub>") + "&sample=4&seed=11"
	resp1, body1 := getBody(t, ts.URL+q)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp1.StatusCode, body1)
	}
	var nb struct {
		Sampled  bool            `json:"sampled"`
		Coverage float64         `json:"coverage"`
		Nodes    json.RawMessage `json:"nodes"`
	}
	if err := json.Unmarshal(body1, &nb); err != nil {
		t.Fatal(err)
	}
	if !nb.Sampled {
		t.Fatal("fan-out 40 with sample=4 should report sampled")
	}
	if nb.Coverage <= 0 || nb.Coverage >= 1 {
		t.Fatalf("coverage = %v, want in (0,1)", nb.Coverage)
	}
	_, body2 := getBody(t, ts.URL+q)
	if string(body1) != string(body2) {
		t.Fatal("same (sample, seed) served different neighborhoods")
	}

	for _, bad := range []string{"sample=0", "sample=-3", "sample=abc"} {
		resp, body := getBody(t, ts.URL+"/graph/neighborhood?node="+url.QueryEscape("<http://x/hub>")+"&"+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d (%s), want 400", bad, resp.StatusCode, body)
		}
	}
}

// TestFacetWarming: serving a filtered /facets view must build its ancestor
// views (each filter prefix, down to the unfiltered root) into the response
// cache in the background, so zooming out is a HIT.
func TestFacetWarming(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{FacetWarming: true})
	warmed := make(chan string, 8)
	s.warmHook = func(key string) { warmed <- key }

	params := url.Values{}
	params.Add("filter", exNS+"country=<"+exNS+"greece>")
	params.Add("filter", exNS+"population=664046")
	resp, body := getBody(t, ts.URL+"/facets?"+params.Encode())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("filtered request status = %d: %s", resp.StatusCode, body)
	}

	// Two filters -> two ancestor views (one-filter prefix and the root).
	for i := 0; i < 2; i++ {
		select {
		case <-warmed:
		case <-time.After(10 * time.Second):
			t.Fatalf("warm job %d never finished", i)
		}
	}

	uresp, _ := getBody(t, ts.URL+"/facets")
	if xc := uresp.Header.Get("X-Cache"); xc != "HIT" {
		t.Fatalf("unfiltered /facets after warming: X-Cache = %q, want HIT", xc)
	}

	// The same filtered view again must not schedule duplicate warm jobs.
	getBody(t, ts.URL+"/facets?"+params.Encode())
	select {
	case key := <-warmed:
		t.Fatalf("duplicate warm job for %q", key)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestStatsStreamAfterWrite: the store keeps its statistics, so after a
// write /stats/stream answers with its done line alone, and that line's
// result is the body of /stats on the same server and on a cache-off server
// over the same store.
func TestStatsStreamAfterWrite(t *testing.T) {
	st := gen.MiniLODStore()
	cached := httptest.NewServer(New(st, Config{Logger: discardLogger()}).Handler())
	t.Cleanup(cached.Close)
	uncached := httptest.NewServer(New(st, Config{Logger: discardLogger(), CacheCapacity: -1}).Handler())
	t.Cleanup(uncached.Close)

	getBody(t, cached.URL+"/stats")
	resp, err := http.Post(cached.URL+"/triples", "application/n-triples",
		strings.NewReader(`<http://x/new> <`+string(rdf.RDFType)+`> <http://x/NewClass> .`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /triples: status %d", resp.StatusCode)
	}

	_, stream := getBody(t, cached.URL+"/stats/stream")
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	if len(lines) != 1 {
		t.Fatalf("/stats/stream after a write has %d lines, want 1:\n%s", len(lines), stream)
	}
	var final streamFinalLine
	if err := json.Unmarshal([]byte(lines[0]), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Fraction != 1 || final.Error != "" {
		t.Fatalf("line = %+v, want done at fraction 1", final)
	}
	if !strings.Contains(string(final.Result), "http://x/NewClass") {
		t.Fatalf("result does not count the write: %s", final.Result)
	}
	for _, u := range []string{cached.URL, uncached.URL} {
		if _, body := getBody(t, u+"/stats"); string(final.Result) != strings.TrimSpace(string(body)) {
			t.Fatalf("%s/stats differs from the stream:\nstream: %s\nstats:  %s", u, final.Result, body)
		}
	}
}

// TestStatsClassOrderDeterministic: classes with the same count and the
// same lexical form ("a"@en and "a"@de; an IRI and a literal spelled alike)
// are ordered by term, so every request gets the same bytes and ETag.
func TestStatsClassOrderDeterministic(t *testing.T) {
	var triples []rdf.Triple
	for i, cls := range []rdf.Term{
		rdf.NewLangLiteral("a", "en"), rdf.NewLangLiteral("a", "de"),
		rdf.IRI("http://x/a"), rdf.NewLiteral("http://x/a"),
	} {
		triples = append(triples, rdf.T(rdf.IRI(fmt.Sprintf("http://x/e%d", i)), rdf.RDFType, cls))
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, Config{Logger: discardLogger(), CacheCapacity: -1}).Handler())
	t.Cleanup(ts.Close)
	first, body := getBody(t, ts.URL+"/stats")
	for i := 0; i < 50; i++ {
		resp, again := getBody(t, ts.URL+"/stats")
		if string(again) != string(body) || resp.Header.Get("ETag") != first.Header.Get("ETag") {
			t.Fatalf("request %d: body or ETag differs:\n%s\n%s", i, body, again)
		}
	}
}

// TestFacetsStreamTimerFlushesStalledBatch: a batch that is not the first
// waits for a flush, and when the stream stalls right after it, the flush
// timer, not the next line, sends it: over 12 000 entities in 37 200
// statements (two full pages) with every decode after the second batch's
// held, the client reads both batches while the gate stays shut.
func TestFacetsStreamTimerFlushesStalledBatch(t *testing.T) {
	st := synthStore(t, 12000)
	gated := &termsGatedSource{Store: st, free: 2, release: make(chan struct{})}
	s := New(st, Config{Logger: discardLogger(), CacheCapacity: -1, source: gated})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	released := false
	defer func() {
		if !released {
			close(gated.release)
		}
	}()

	resp, err := http.Get(ts.URL + "/facets/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for page := 1; page <= 2; page++ {
		linec := make(chan []byte, 1)
		go func() {
			line, _ := br.ReadBytes('\n')
			linec <- line
		}()
		var line []byte
		select {
		case line = <-linec:
		case <-time.After(time.Second):
			t.Fatalf("batch %d did not arrive within 1s while the stream was held", page)
		}
		var batch struct {
			Scanned int  `json:"scanned"`
			Done    bool `json:"done"`
		}
		if err := json.Unmarshal(line, &batch); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if want := page * explore.DefaultPageSize; batch.Done || batch.Scanned != want {
			t.Fatalf("line %s: want an approximate batch over %d statements", line, want)
		}
	}
	close(gated.release)
	released = true
	if _, final := readStream(t, br); !final.Done {
		t.Fatalf("final = %+v, want done", final)
	}
}

// The /facets/stream batch encoding before appendFacetBatch: the reference
// it is held to byte for byte.
type (
	refEstimate struct {
		Value    float64 `json:"value"`
		CI95     float64 `json:"ci95"`
		Fraction float64 `json:"fraction"`
	}
	refFacetBatch struct {
		Fraction float64          `json:"fraction"`
		Scanned  int              `json:"scanned"`
		Count    int              `json:"count"`
		Facets   []refFacetValues `json:"facets"`
	}
	refFacetValues struct {
		Predicate string          `json:"predicate"`
		Total     refEstimate     `json:"total"`
		Values    []refFacetValue `json:"values"`
	}
	refFacetValue struct {
		Term  sparql.JSONTerm `json:"term"`
		Count refEstimate     `json:"count"`
	}
)

func refBatch(b facet.Batch) refFacetBatch {
	est := func(e progressive.Estimate) refEstimate {
		return refEstimate{Value: e.Value, CI95: e.CI95, Fraction: e.Fraction}
	}
	out := refFacetBatch{Fraction: b.Fraction, Scanned: b.Scanned, Count: b.Count, Facets: []refFacetValues{}}
	for _, fe := range b.Facets {
		fj := refFacetValues{Predicate: string(fe.Predicate), Total: est(fe.Total), Values: []refFacetValue{}}
		for _, v := range fe.Values {
			fj.Values = append(fj.Values, refFacetValue{Term: sparql.EncodeTerm(v.Term), Count: est(v.Count)})
		}
		out.Facets = append(out.Facets, fj)
	}
	return out
}

// TestAppendFacetBatchMatchesEncoder: a facet batch appends exactly as
// json.Encoder wrote the struct tree it replaced — floats at 0, just below
// 1e-6 and at 1e21 included — and a non-finite estimate fails the line.
func TestAppendFacetBatchMatchesEncoder(t *testing.T) {
	below := math.Nextafter(1e-6, 0)
	e := func(v, ci, f float64) progressive.Estimate {
		return progressive.Estimate{Value: v, CI95: ci, Fraction: f}
	}
	batches := []facet.Batch{
		{},
		{Scanned: 3, Fraction: below, Count: 1, Facets: []facet.FacetEstimate{{Predicate: "http://e/p"}}},
		{Scanned: 1 << 20, Fraction: 1, Count: 42, Facets: []facet.FacetEstimate{
			{Predicate: "http://e/p?a=<1>&b=2", Total: e(1e21, 0, below), Values: []facet.ValueEstimate{
				{Term: rdf.IRI("http://e/<o>&"), Count: e(0, 0, 0)},
				{Term: rdf.NewLangLiteral("chat \u2028 <b>", "fr"), Count: e(12.5, 3.25, 0.125)},
				{Term: rdf.NewLiteral("bad \xff utf-8"), Count: e(-below, 1e22, 1e-7)},
				{Term: rdf.NewInteger(7), Count: e(1.0/3, 2e-7, 0.5)},
				{Term: rdf.BlankNode("b0"), Count: e(math.Nextafter(1e21, 0), 100, 1)},
			}},
			{Predicate: "http://e/q", Total: e(2, 0.5, 0.25)},
		}},
	}
	for _, b := range batches {
		got, err := appendFacetBatch([]byte("x"), b)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(refBatch(b)); err != nil {
			t.Fatal(err)
		}
		if string(got[1:])+"\n" != want.String() {
			t.Errorf("batch %+v:\n got %s\nwant %s", b, got[1:], want.Bytes())
		}
	}
	bad := facet.Batch{Facets: []facet.FacetEstimate{{Predicate: "http://e/p", Total: e(math.NaN(), 0, 1)}}}
	if _, err := appendFacetBatch(nil, bad); err == nil {
		t.Fatal("a NaN estimate encoded without error")
	}
}
