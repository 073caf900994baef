package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

// TestMetricsEndpoint drives traffic through several layers, then asserts
// /metrics is valid Prometheus text exposition carrying every registered
// family.
func TestMetricsEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})

	// One engine query (cached on the repeat), one facet request, one
	// streamed query, one shed-free healthz.
	q := url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 3`)
	for _, u := range []string{
		ts.URL + "/sparql?query=" + q,
		ts.URL + "/sparql?query=" + q,
		ts.URL + "/facets",
		ts.URL + "/sparql/stream?query=" + q,
		ts.URL + "/hetree?budget=2&prop=" + url.QueryEscape(exNS+"population"),
		ts.URL + "/hetree?budget=4&prop=" + url.QueryEscape(exNS+"population"),
		ts.URL + "/healthz",
		ts.URL + "/stats",
		ts.URL + "/stats/stream",
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every registered family must be present as a TYPE line, and every
	// non-comment line must parse as `name value` or `name{labels} value`.
	for _, fam := range s.reg.Families() {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("family %s missing from exposition", fam)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("line %q: value %q is not a float", line, line[sp+1:])
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Errorf("line %q: malformed label block", line)
			}
			name = name[:i]
		}
		if name == "" {
			t.Errorf("line %q: empty metric name", line)
		}
	}

	// Spot-check families from each instrumented layer actually carry
	// samples.
	for _, want := range []string{
		`lodviz_http_requests_total{route="/sparql",method="GET",class="2xx"} 2`,
		`lodviz_http_streams_total{route="/sparql/stream",outcome="completed"} 1`,
		`lodviz_http_stream_flushes_total{route="/sparql/stream"} `,
		`lodviz_http_stream_flushes_total{route="/stats/stream"} 1` + "\n",
		"lodviz_store_triples ",
		"lodviz_store_stats_tally_entries ",
		"lodviz_store_stats_tally_builds_total 1\n",
		"lodviz_cache_hits_total 1",
		"lodviz_cache_bytes ",
		"lodviz_cache_capacity ",
		"lodviz_cache_revalidated_total 0",
		`lodviz_cache_invalidated_total{cause="footprint"} 0`,
		`lodviz_cache_invalidated_total{cause="log"} 0`,
		`lodviz_keyword_refresh_total{mode="incremental"} 0`,
		`lodviz_keyword_refresh_seconds{mode="rebuild"} 0`,
		"lodviz_keyword_search_total 0\n",
		"lodviz_keyword_search_postings_total 0\n",
		`lodviz_hetree_base_total{outcome="built"} 1`,
		`lodviz_hetree_base_total{outcome="reused"} 1`,
		"lodviz_hetree_base_build_seconds ",
		`lodviz_facet_base_total{outcome="built"} 1`,
		`lodviz_facet_base_total{outcome="reused"} 0`,
		"lodviz_facet_base_build_seconds ",
		"lodviz_store_scan_runs_total ",
		"lodviz_engine_queries_materialized_total",
		// Both queries are paged and their rows final: no Binding is built.
		"lodviz_engine_bindings_total 0\n",
		"lodviz_http_request_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The dictionary's table has a power-of-two slot count, at most half
	// of it holding the store's terms.
	value := func(name string) float64 {
		_, rest, ok := strings.Cut(text, "\n"+name+" ")
		v, err := strconv.ParseFloat(strings.SplitN(rest, "\n", 2)[0], 64)
		if !ok || err != nil {
			t.Fatalf("exposition has no %s sample", name)
		}
		return v
	}
	terms, slots := value("lodviz_store_terms"), value("lodviz_store_dict_slots")
	if n := int(slots); terms == 0 || 2*terms > slots || n&(n-1) != 0 || n != s.st.Observe().DictSlots {
		t.Errorf("lodviz_store_dict_slots %v for %v terms", slots, terms)
	}
	// The paged queries, the facet base and the hierarchy's value run each
	// took a run.
	if value("lodviz_store_scan_runs_total") == 0 {
		t.Error("no scan run was taken")
	}

	// A search moves both keyword search counters.
	for _, u := range []string{ts.URL + "/search?q=athens", ts.URL + "/metrics"} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	text = string(body)
	if !strings.Contains(text, "lodviz_keyword_search_total 1\n") {
		t.Error("a search did not count in lodviz_keyword_search_total")
	}
	if strings.Contains(text, "lodviz_keyword_search_postings_total 0\n") {
		t.Error("a search that found athens read no postings")
	}
}

// TestExplainEndpoint asserts ?explain=1 attaches a span tree matching the
// executed plan and bypasses the response cache.
func TestExplainEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `SELECT ?city ?pop WHERE { ?city <` + exNS + `country> <` + exNS + `greece> . ?city <` + exNS + `population> ?pop }`

	resp, err := http.Post(ts.URL+"/sparql?explain=1", "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
		t.Fatalf("X-Cache = %q, want BYPASS (explained responses are uncacheable)", got)
	}
	var doc struct {
		Results *struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
		Explain *struct {
			Root *explain.Span `json:"root"`
		} `json:"explain"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Results == nil || len(doc.Results.Bindings) == 0 {
		t.Fatal("explained response lost its results")
	}
	if doc.Explain == nil || doc.Explain.Root == nil || doc.Explain.Root.Name != "query" {
		t.Fatalf("explain member missing or malformed: %+v", doc.Explain)
	}
	var pats []*explain.Span
	var walk func(s *explain.Span)
	walk = func(s *explain.Span) {
		if s.Name == "pattern" {
			pats = append(pats, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(doc.Explain.Root)
	if len(pats) != 2 {
		t.Fatalf("pattern spans = %d, want 2", len(pats))
	}
	if last := pats[len(pats)-1]; last.RowsOut != len(doc.Results.Bindings) {
		t.Errorf("final span rowsOut %d != result rows %d", last.RowsOut, len(doc.Results.Bindings))
	}
	for _, p := range pats {
		if p.Strategy == "" {
			t.Errorf("pattern span %q missing strategy", p.Detail)
		}
	}

	// Without explain=1 the same query has no explain member and caches.
	resp2, err := http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body), `"explain"`) {
		t.Error("unexplained response carries an explain member")
	}
	if got := resp2.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("X-Cache = %q, want MISS (explain must not have filled the cache)", got)
	}
}

// TestSlowQueryLog asserts queries over the threshold are logged with a
// plan summary and counted.
func TestSlowQueryLog(t *testing.T) {
	var logBuf bytes.Buffer
	s, ts, _ := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		Logger:             slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	q := url.QueryEscape(`SELECT ?city ?pop WHERE { ?city <` + exNS + `country> <` + exNS + `greece> . ?city <` + exNS + `population> ?pop }`)
	resp, err := http.Get(ts.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	out := logBuf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query log line in:\n%s", out)
	}
	if !strings.Contains(out, "pattern[") {
		t.Errorf("slow-query line missing plan summary:\n%s", out)
	}
	if got := s.met.slowQueries.Value(); got != 1 {
		t.Errorf("slowQueries = %d, want 1", got)
	}
}

// failAfterWriter fails every Write after the first n, simulating a client
// that disconnected mid-stream. lines counts the lines it was handed,
// failed Writes included.
type failAfterWriter struct {
	hdr    http.Header
	writes int
	limit  int
	lines  int
}

func (f *failAfterWriter) Header() http.Header { return f.hdr }
func (f *failAfterWriter) WriteHeader(int)     {}
func (f *failAfterWriter) Write(p []byte) (int, error) {
	f.writes++
	f.lines += bytes.Count(p, []byte("\n"))
	if f.writes > f.limit {
		return 0, errors.New("client gone")
	}
	return len(p), nil
}

// TestStreamAbortAccounting asserts a mid-stream disconnect still records
// the delivered rows and an "aborted" outcome on the request recorder.
func TestStreamAbortAccounting(t *testing.T) {
	// 3 100 rows, several 32 KiB flushes; the timer is kept out of the way,
	// so the flushes are the first row's and the full buffers'.
	s := New(synthStore(t, 1000), Config{Logger: discardLogger()})
	s.flushDelay = time.Hour
	// The first row's flush and the first full buffer's go out, then the
	// client vanishes: the second full buffer's Write fails.
	fw := &failAfterWriter{hdr: make(http.Header), limit: 2}
	rec := &statusRecorder{ResponseWriter: fw, status: http.StatusOK}
	r := httptest.NewRequest("GET", "/sparql/stream?query="+url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`), nil)

	s.handleSPARQLStream(rec, r)

	if rec.streamOutcome != "aborted" {
		t.Fatalf("streamOutcome = %q, want aborted", rec.streamOutcome)
	}
	if fw.writes != 3 {
		t.Fatalf("%d Writes, want 3 (the stream stops at the failed one)", fw.writes)
	}
	// The rows handed over before the failing flush: every row line of the
	// three Writes but the one whose line set the last flush off (the head
	// line is not a row).
	if want := fw.lines - 2; rec.streamRows != want || want < 2 {
		t.Errorf("streamRows = %d, want %d (rows handed over before the disconnect)", rec.streamRows, want)
	}
	if rec.bytes == 0 {
		t.Error("bytes = 0; delivered lines must still be accounted")
	}

	// A completed stream on the same server records the other outcome.
	okRec := httptest.NewRecorder()
	rec2 := &statusRecorder{ResponseWriter: okRec, status: http.StatusOK}
	s.handleSPARQLStream(rec2, httptest.NewRequest("GET", "/sparql/stream?query="+url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o } LIMIT 2`), nil))
	if rec2.streamOutcome != "completed" || rec2.streamRows != 2 {
		t.Fatalf("completed stream: outcome=%q rows=%d, want completed/2", rec2.streamOutcome, rec2.streamRows)
	}
}

// TestFacetsStreamAbortAccounting drives the explore-stream abort path via
// a writer that dies after the first batch line.
func TestFacetsStreamAbortAccounting(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	// The demo dataset is small enough that the scan may emit no
	// intermediate batch, so fail from the very first write.
	fw := &failAfterWriter{hdr: make(http.Header), limit: 0}
	rec := &statusRecorder{ResponseWriter: fw, status: http.StatusOK}
	s.handleFacetsStream(rec, httptest.NewRequest("GET", "/facets/stream", nil))
	if rec.streamOutcome != "aborted" {
		t.Fatalf("streamOutcome = %q, want aborted", rec.streamOutcome)
	}

	// The completed run fills the buffered endpoint's cache entry and
	// counts the fill.
	fillsBefore := s.met.cacheFills.Value()
	rec2 := &statusRecorder{ResponseWriter: httptest.NewRecorder(), status: http.StatusOK}
	s.handleFacetsStream(rec2, httptest.NewRequest("GET", "/facets/stream", nil))
	if rec2.streamOutcome != "completed" {
		t.Fatalf("streamOutcome = %q, want completed", rec2.streamOutcome)
	}
	if got := s.met.cacheFills.Value(); got != fillsBefore+1 {
		t.Errorf("cacheFills = %d, want %d", got, fillsBefore+1)
	}
}

// TestHealthzEnriched asserts the enriched status document carries the
// uptime and store sections (WAL/snapshot/ledger sections are exercised in
// the lodvizd wiring).
func TestHealthzEnriched(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	var resp healthzResponse
	r := getJSON(t, ts.URL+"/healthz", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v, want > 0", resp.UptimeSeconds)
	}
	if resp.Triples != st.Len() || resp.Terms != st.NumTerms() {
		t.Errorf("triples/terms = %d/%d, want %d/%d", resp.Triples, resp.Terms, st.Len(), st.NumTerms())
	}
	if resp.WAL != nil || resp.Snapshot != nil || resp.Ledger != nil {
		t.Errorf("sections for unconfigured subsystems must be omitted: %+v", resp)
	}
}

// TestStreamFailedOutcome: a stream that ends in an error trailer is neither
// completed nor aborted. With a 1ns query timeout every streaming route
// commits its 200, fails at its first context check and says so in the
// trailer; the access log and lodviz_http_streams_total must call that
// "failed" — they used to call it "completed", because the error line was
// written.
func TestStreamFailedOutcome(t *testing.T) {
	load := func(entities int) *store.Store {
		st, err := store.Load(gen.EntityDataset(gen.EntityOptions{Entities: entities, CategoryProps: 1, Seed: 3}))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var logBuf bytes.Buffer
	cfg := Config{QueryTimeout: time.Nanosecond, Logger: slog.New(slog.NewTextHandler(&logBuf, nil))}
	s := New(load(3000), cfg)
	for _, route := range []string{"/facets/stream", "/stats/stream", "/sparql/stream"} {
		target := route
		if route == "/sparql/stream" {
			target += "?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"error":"query timed out"`) {
			t.Fatalf("%s: status %d body %q, want 200 and a timed-out trailer", route, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, route := range []string{"/facets/stream", "/stats/stream", "/sparql/stream"} {
		if want := `lodviz_http_streams_total{route="` + route + `",outcome="failed"} 1`; !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
		if bad := `lodviz_http_streams_total{route="` + route + `",outcome="completed"}`; strings.Contains(rec.Body.String(), bad) {
			t.Errorf("/metrics counts the failed %s stream as completed", route)
		}
	}
	if got := strings.Count(logBuf.String(), "stream=failed"); got != 3 {
		t.Errorf("access log has %d stream=failed lines, want 3:\n%s", got, logBuf.String())
	}

	// Over 4096 typed entities the facet session itself notices the
	// deadline. Nothing has been written by then, so that is a status (the
	// buffered route's), not a 200 with a trailer — and not a stream.
	big := httptest.NewRecorder()
	New(load(5000), cfg).Handler().ServeHTTP(big, httptest.NewRequest(http.MethodGet, "/facets/stream", nil))
	if big.Code != http.StatusGatewayTimeout || !strings.Contains(big.Body.String(), `{"error":"query timed out"}`) {
		t.Fatalf("session failure: status %d body %q, want 504 and the error envelope", big.Code, big.Body.String())
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "status=504") || strings.Contains(last, "stream=") {
		t.Errorf("access log line of the session failure = %q, want status=504 and no stream outcome", last)
	}
}
