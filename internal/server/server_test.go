package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

const exNS = "http://lodviz.example.org/mini/"

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = discardLogger()
	}
	st := gen.MiniLODStore()
	s := New(st, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, st
}

// sparqlDoc mirrors the SPARQL JSON results document.
type sparqlDoc struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Boolean *bool `json:"boolean"`
	Results *struct {
		Bindings []map[string]struct {
			Type     string `json:"type"`
			Value    string `json:"value"`
			Lang     string `json:"xml:lang"`
			Datatype string `json:"datatype"`
		} `json:"bindings"`
	} `json:"results"`
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("decoding %s: %v\nbody: %s", url, err, body)
		}
	}
	return resp
}

func TestSPARQLSelectGet(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `SELECT ?city ?pop WHERE { ?city <` + exNS + `country> <` + exNS + `greece> . ?city <` + exNS + `population> ?pop } ORDER BY DESC(?pop)`
	var doc sparqlDoc
	resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/sparql-results+json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if len(doc.Head.Vars) != 2 || doc.Head.Vars[0] != "city" || doc.Head.Vars[1] != "pop" {
		t.Fatalf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("got %d rows, want 2 (athens, thessaloniki)", len(doc.Results.Bindings))
	}
	first := doc.Results.Bindings[0]
	if first["city"].Type != "uri" || first["city"].Value != exNS+"athens" {
		t.Fatalf("first city = %+v, want athens", first["city"])
	}
	if first["pop"].Type != "literal" || first["pop"].Value != "664046" {
		t.Fatalf("first pop = %+v", first["pop"])
	}
	if first["pop"].Datatype == "" {
		t.Fatal("numeric literal should carry a datatype")
	}
}

func TestSPARQLAsk(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `ASK { <` + exNS + `athens> <` + exNS + `country> <` + exNS + `greece> }`
	var doc sparqlDoc
	resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if doc.Boolean == nil || !*doc.Boolean {
		t.Fatalf("boolean = %v, want true", doc.Boolean)
	}
}

func TestSPARQLPostForm(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `SELECT ?s WHERE { ?s a <` + exNS + `Country> }`
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"query": {q}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var doc sparqlDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results.Bindings) != 3 {
		t.Fatalf("got %d countries, want 3", len(doc.Results.Bindings))
	}
}

func TestSPARQLPostRawBody(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `ASK { ?s ?p ?o }`
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}

func TestSPARQLUnsupportedMediaType(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/sparql", "text/plain", strings.NewReader("ASK {?s ?p ?o}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
}

func TestSPARQLMalformedQuery400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var e errorBody
	resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape("SELECT WHERE garbage {{{"), &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	if e.Error == "" {
		t.Fatal("error body missing \"error\" field")
	}
}

func TestSPARQLMissingQuery400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var e errorBody
	resp := getJSON(t, ts.URL+"/sparql", &e)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "missing query") {
		t.Fatalf("error = %q", e.Error)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sparql", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

func TestSPARQLTimeout504(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueryTimeout: time.Nanosecond})
	var e errorBody
	resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"), &e)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %+v)", resp.StatusCode, e)
	}
}

func TestCacheMissThenHit(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	u := ts.URL + "/sparql?query=" + url.QueryEscape("SELECT ?s WHERE { ?s a <"+exNS+"City> }")
	var first, second sparqlDoc
	r1 := getJSON(t, u, &first)
	if got := r1.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first X-Cache = %q, want MISS", got)
	}
	r2 := getJSON(t, u, &second)
	if got := r2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second X-Cache = %q, want HIT", got)
	}
	if len(first.Results.Bindings) != len(second.Results.Bindings) {
		t.Fatal("hit returned different row count than miss")
	}
	if r1.Header.Get("ETag") == "" || r1.Header.Get("ETag") != r2.Header.Get("ETag") {
		t.Fatalf("ETags differ: %q vs %q", r1.Header.Get("ETag"), r2.Header.Get("ETag"))
	}
}

// TestCacheNormalizedQueryShared asserts the whitespace/comment-insensitive
// keying: a reformatted spelling of a cached query is a HIT.
func TestCacheNormalizedQueryShared(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q1 := "SELECT ?s WHERE { ?s a <" + exNS + "City> }"
	q2 := "SELECT   ?s\nWHERE {\n  ?s a <" + exNS + "City> # find the cities\n}"
	getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q1), nil)
	resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q2), nil)
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("reformatted query X-Cache = %q, want HIT", got)
	}
}

// TestCacheKeyReadsStringAfterLessThan: a '<' that is less-than opens no
// IRI, so the string after it is read whole, '>' and '#' included. Two
// queries that differ only after that string keep their own entries, and a
// SERVICE clause there still bypasses the cache.
func TestCacheKeyReadsStringAfterLessThan(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, limit := range []int{1, 2} {
		q := fmt.Sprintf("SELECT ?s WHERE { %s} LIMIT %d", lessThanThenString, limit)
		var doc sparqlDoc
		resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
		if got := len(doc.Results.Bindings); got != limit {
			t.Errorf("LIMIT %d: %d rows (X-Cache %s)", limit, got, resp.Header.Get("X-Cache"))
		}
	}
	_, remote, _ := newTestServer(t, Config{})
	q := fmt.Sprintf("SELECT ?s WHERE { %sSERVICE <%s/sparql> { ?s ?p ?o } } LIMIT 1", lessThanThenString, remote.URL)
	for i := 0; i < 2; i++ {
		var doc sparqlDoc
		resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
		if resp.StatusCode != http.StatusOK || len(doc.Results.Bindings) != 1 {
			t.Fatalf("SERVICE query %d: status %d, %d rows", i, resp.StatusCode, len(doc.Results.Bindings))
		}
		if got := resp.Header.Get("X-Cache"); got == "HIT" {
			t.Errorf("SERVICE query %d answered from the cache", i)
		}
	}
}

func TestETag304RoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	u := ts.URL + "/stats"
	resp := getJSON(t, u, nil)
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on cacheable response")
	}
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp2.StatusCode)
	}
	body, _ := io.ReadAll(resp2.Body)
	if len(body) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body))
	}
	if resp2.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", resp2.Header.Get("ETag"), etag)
	}
}

// TestWriteInvalidatesCache is the invalidation contract end-to-end over
// HTTP: cache a query, POST a triple that changes its answer, and observe a
// MISS with the new row included.
func TestWriteInvalidatesCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := "SELECT ?s WHERE { ?s a <" + exNS + "City> }"
	u := ts.URL + "/sparql?query=" + url.QueryEscape(q)

	var before sparqlDoc
	getJSON(t, u, &before)
	resp := getJSON(t, u, nil)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("warmup did not cache (X-Cache = %q)", resp.Header.Get("X-Cache"))
	}

	nt := "<" + exNS + "sparta> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" + exNS + "City> .\n"
	ing, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	var ingResp ingestResponse
	if err := json.NewDecoder(ing.Body).Decode(&ingResp); err != nil {
		t.Fatal(err)
	}
	ing.Body.Close()
	if ing.StatusCode != http.StatusOK || ingResp.Added != 1 {
		t.Fatalf("ingest status = %d, added = %d", ing.StatusCode, ingResp.Added)
	}

	var after sparqlDoc
	resp = getJSON(t, u, &after)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-write X-Cache = %q, want MISS", got)
	}
	if len(after.Results.Bindings) != len(before.Results.Bindings)+1 {
		t.Fatalf("post-write rows = %d, want %d", len(after.Results.Bindings), len(before.Results.Bindings)+1)
	}
}

// TestWriteRefreshesSearchAndSparesUnrelatedEntries follows one write
// through the two structures that used to pay for it in full: the keyword
// index picks the written entity up by re-indexing it alone, and the
// response cache keeps every entry whose footprint the write did not touch
// — here a label on an untyped, unlinked subject, which no facet view,
// hierarchy, neighborhood or City query read. /stats, /search and /complete
// read the whole store and are rebuilt.
func TestWriteRefreshesSearchAndSparesUnrelatedEntries(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	search := ts.URL + "/search?q=atlantis"
	var hits searchResponse
	getJSON(t, search, &hits)
	if len(hits.Hits) != 0 {
		t.Fatalf("hits before the write: %+v", hits.Hits)
	}
	cities := "/sparql?query=" + url.QueryEscape("SELECT ?s WHERE { ?s a <"+exNS+"City> }")
	kept := []string{
		"/facets",
		"/facets?filter=" + url.QueryEscape(exNS+"country=<"+exNS+"greece>"),
		"/hetree?prop=" + url.QueryEscape(exNS+"population"),
		"/graph/neighborhood?node=" + url.QueryEscape("<"+exNS+"athens>"),
		cities,
	}
	rebuilt := []string{"/stats", "/complete?prefix=a"}
	bodies := map[string]string{}
	for _, u := range append(append([]string{}, kept...), rebuilt...) {
		resp, body := getBody(t, ts.URL+u)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", u, resp.StatusCode, body)
		}
		bodies[u] = string(body)
	}
	entries := 1 + len(kept) + len(rebuilt)
	if s.cache.Len() != entries {
		t.Fatalf("cache holds %d entries before the write, want %d", s.cache.Len(), entries)
	}
	if ks := s.kw.Stats(); ks.Rebuild.Count != 1 || ks.Incremental.Count != 0 {
		t.Fatalf("before the write: %d rebuilds, %d incremental refreshes; want the initial build only",
			ks.Rebuild.Count, ks.Incremental.Count)
	}

	nt := "<" + exNS + "atlantis> <http://www.w3.org/2000/01/rdf-schema#label> \"Atlantis\" .\n"
	ing, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	ing.Body.Close()
	if ing.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", ing.StatusCode)
	}

	resp := getJSON(t, search, &hits)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("post-write search X-Cache = %q, want MISS", got)
	}
	if len(hits.Hits) != 1 || hits.Hits[0].Entity.Value != exNS+"atlantis" {
		t.Fatalf("hits after the write = %+v, want the written entity", hits.Hits)
	}
	if ks := s.kw.Stats(); ks.Rebuild.Count != 1 || ks.Incremental.Count != 1 {
		t.Errorf("after the write: %d rebuilds, %d incremental refreshes; want the write followed incrementally",
			ks.Rebuild.Count, ks.Incremental.Count)
	}
	for _, u := range kept {
		resp, body := getBody(t, ts.URL+u)
		if got := resp.Header.Get("X-Cache"); got != "HIT" {
			t.Errorf("%s after an unrelated write: X-Cache = %q, want HIT", u, got)
		}
		if string(body) != bodies[u] {
			t.Errorf("%s: body changed across an unrelated write", u)
		}
	}
	for _, u := range rebuilt {
		resp, _ := getBody(t, ts.URL+u)
		if got := resp.Header.Get("X-Cache"); got != "MISS" {
			t.Errorf("%s after a write: X-Cache = %q, want MISS", u, got)
		}
	}
	// Nothing was added or lost: the rebuilt views replaced their entries.
	if n := s.cache.Len(); n != entries {
		t.Errorf("cache holds %d entries after the write, want %d", n, entries)
	}
	if cs := s.cache.Stats(); cs.Evictions != 0 {
		t.Errorf("%d evictions, want none", cs.Evictions)
	}

	// A write the City query did read: typing the new subject.
	nt = "<" + exNS + "atlantis> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" + exNS + "City> .\n"
	ing, err = http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	ing.Body.Close()
	for _, u := range []string{cities, "/facets"} {
		resp, body := getBody(t, ts.URL+u)
		if got := resp.Header.Get("X-Cache"); got != "MISS" {
			t.Errorf("%s after a write it read: X-Cache = %q, want MISS", u, got)
		}
		if string(body) == bodies[u] {
			t.Errorf("%s: body unchanged by a write it read", u)
		}
	}
	// The hierarchy of another property is none the wiser.
	if resp, _ := getBody(t, ts.URL+kept[2]); resp.Header.Get("X-Cache") != "HIT" {
		t.Errorf("%s after a write to another property: X-Cache = %q, want HIT", kept[2], resp.Header.Get("X-Cache"))
	}

	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`lodviz_keyword_refresh_total{mode="incremental"} 1`,
		`lodviz_keyword_refresh_total{mode="rebuild"} 1`,
		`lodviz_keyword_refresh_seconds{mode="incremental"} `,
		// Carried across the first write: the five kept views; across the
		// second: the hierarchy. Dropped: search, stats and complete after
		// the first write, the City query and the facets after the second.
		"lodviz_cache_revalidated_total 6",
		`lodviz_cache_invalidated_total{cause="footprint"} 5`,
		`lodviz_cache_invalidated_total{cause="log"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestIngestMalformed400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader("this is not n-triples\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestIngestAtomicRollback is the write-atomicity contract: a batch whose
// tail is malformed must leave the store untouched — the valid head triples
// are not applied, the size does not move, and the generation (hence every
// cached response) stays valid.
func TestIngestAtomicRollback(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	lenBefore, genBefore := st.Len(), st.Generation()

	valid := "<" + exNS + "atomA> <" + exNS + "p> <" + exNS + "atomB> .\n"
	body := valid + valid[:len(valid)-2] + "garbage\n" // second statement malformed
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if st.Len() != lenBefore {
		t.Fatalf("store size moved on a 400: %d -> %d", lenBefore, st.Len())
	}
	if st.Generation() != genBefore {
		t.Fatalf("generation moved on a 400: %d -> %d", genBefore, st.Generation())
	}
	if st.Contains(rdf.T(rdf.IRI(exNS+"atomA"), rdf.IRI(exNS+"p"), rdf.IRI(exNS+"atomB"))) {
		t.Fatal("valid head triple of a rejected batch was applied")
	}
}

// TestIngestDuplicatesAreNoOp: re-posting existing triples reports zero
// added and leaves the generation (and therefore the response cache) alone.
func TestIngestDuplicatesAreNoOp(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	nt := "<" + exNS + "dupS> <" + exNS + "dupP> <" + exNS + "dupO> .\n"

	post := func() ingestResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var ir ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatal(err)
		}
		return ir
	}

	first := post()
	if first.Added != 1 || first.Received != 1 {
		t.Fatalf("first ingest: added=%d received=%d, want 1/1", first.Added, first.Received)
	}
	gen := st.Generation()
	second := post()
	if second.Added != 0 || second.Received != 1 {
		t.Fatalf("duplicate ingest: added=%d received=%d, want 0/1", second.Added, second.Received)
	}
	if st.Generation() != gen {
		t.Fatalf("duplicate ingest advanced generation: %d -> %d", gen, st.Generation())
	}
}

// TestIngestBatchBumpsGenerationOnce: a multi-triple batch is one content
// mutation, not one per triple.
func TestIngestBatchBumpsGenerationOnce(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	gen := st.Generation()
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "<%sbatch%d> <%sp> <%so%d> .\n", exNS, i, exNS, exNS, i)
	}
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Added != 100 {
		t.Fatalf("added = %d, want 100", ir.Added)
	}
	if got := st.Generation(); got != gen+1 {
		t.Fatalf("batch of 100 advanced generation %d times, want 1", got-gen)
	}
}

// Test429UnderSaturation fills the one concurrency slot with a request
// parked inside the limiter hook, then asserts the next request is shed.
func Test429UnderSaturation(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, ts, _ := newTestServer(t, Config{MaxInFlight: 1})
	s.limiterHook = func(route string) {
		if route == "/healthz" {
			entered <- struct{}{}
			<-block
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the slot is now held

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var e errorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body not a JSON error: %v %+v", err, e)
	}
	close(block)
	wg.Wait()

	// The slot is free again: the endpoint recovers.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp2.StatusCode)
	}
}

func TestFacets(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	// The same restriction under a predicate whose IRI holds '=', which only
	// the bracketed spelling can name.
	var copies []rdf.Triple
	for _, c := range st.Match(store.Pattern{P: rdf.IRI(exNS + "country")}) {
		copies = append(copies, rdf.T(c.S, rdf.IRI(exNS+"country?v=1"), c.O))
	}
	if err := st.AddAll(copies); err != nil {
		t.Fatal(err)
	}
	var resp facetsResponse
	r := getJSON(t, ts.URL+"/facets", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.Count == 0 || len(resp.Facets) == 0 {
		t.Fatalf("facets empty: %+v", resp)
	}
	// The filtered view must be a subset.
	var filtered facetsResponse
	fu := ts.URL + "/facets?filter=" + url.QueryEscape(exNS+"country=<"+exNS+"greece>")
	getJSON(t, fu, &filtered)
	if filtered.Count >= resp.Count || filtered.Count == 0 {
		t.Fatalf("filtered count = %d, want 0 < n < %d", filtered.Count, resp.Count)
	}
	for _, pred := range []string{"<" + exNS + "country>", "<" + exNS + "country?v=1>"} {
		var bracketed facetsResponse
		getJSON(t, ts.URL+"/facets?filter="+url.QueryEscape(pred+"=<"+exNS+"greece>"), &bracketed)
		if bracketed.Count != filtered.Count {
			t.Errorf("filter on %s: count = %d, want the bare spelling's %d", pred, bracketed.Count, filtered.Count)
		}
	}
}

// TestFacetsBaseCarriedAcrossUntypedWrite: a POST /triples that names no
// rdf:type leaves the kept typed-subject base standing. The /facets entry
// the write touched is rebuilt over the kept base, and answers what a base
// collected from scratch answers; typing a subject collects it again.
func TestFacetsBaseCarriedAcrossUntypedWrite(t *testing.T) {
	s, ts, st := newTestServer(t, Config{})
	post := func(nt string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /triples: status %d", resp.StatusCode)
		}
	}
	facets := func(step string, built, reused uint64) facetsResponse {
		t.Helper()
		var resp facetsResponse
		if r := getJSON(t, ts.URL+"/facets", &resp); r.StatusCode != http.StatusOK || r.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("%s: status %d, X-Cache %q; want a 200 MISS", step, r.StatusCode, r.Header.Get("X-Cache"))
		}
		fresh, err := facet.NewSessionCtx(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		n, err := fresh.CountCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Count != n {
			t.Fatalf("%s: /facets counts %d entities, a base collected now holds %d", step, resp.Count, n)
		}
		if bs := s.typed.Stats(); bs.Built != built || bs.Reused != reused {
			t.Fatalf("%s: facet base built %d, reused %d; want %d, %d", step, bs.Built, bs.Reused, built, reused)
		}
		return resp
	}

	first := facets("first request", 1, 0)
	// About a typed subject, so the cached view is touched, and about a new
	// untyped one; neither names rdf:type.
	post("<" + exNS + "athens> <http://www.w3.org/2000/01/rdf-schema#comment> \"old town\" .\n" +
		"<" + exNS + "nowhere> <http://www.w3.org/2000/01/rdf-schema#label> \"Nowhere\" .\n")
	if got := facets("untyped write", 1, 1); got.Count != first.Count {
		t.Fatalf("untyped write: count %d, want %d", got.Count, first.Count)
	}
	post("<" + exNS + "atlantis> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <" + exNS + "City> .\n")
	if got := facets("typed write", 2, 1); got.Count != first.Count+1 {
		t.Fatalf("typed write: count %d, want %d", got.Count, first.Count+1)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{`lodviz_facet_base_total{outcome="built"} 2`, `lodviz_facet_base_total{outcome="reused"} 1`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTermParamsDecodeEscapes: a URL parameter names a term the way
// Term.String writes it, escapes included, so what a dump loaded is what the
// parameter finds. (The readers used to take the text between the quotes as
// it stood and looked up a lexical form no data held.)
func TestTermParamsDecodeEscapes(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	entity, note := rdf.IRI(exNS+"café"), rdf.IRI(exNS+"note")
	awkward := rdf.NewLiteral("a\"b \\ tab\there")
	if err := st.AddAll([]rdf.Triple{rdf.T(entity, rdf.RDFType, rdf.IRI(exNS+"City")), rdf.T(entity, note, awkward)}); err != nil {
		t.Fatal(err)
	}
	var facets facetsResponse
	r := getJSON(t, ts.URL+"/facets?filter="+url.QueryEscape(note.String()+"="+awkward.String()), &facets)
	if r.StatusCode != http.StatusOK || facets.Count != 1 {
		t.Fatalf("/facets filtered on %s: status %d, count %d, want the one entity", awkward, r.StatusCode, facets.Count)
	}
	// Literals are never graph nodes, so node= shows the same decoding on an
	// IRI: the entity, spelled with a \u escape as a dump might spell it.
	var hood neighborhoodResponse
	r = getJSON(t, ts.URL+"/graph/neighborhood?node="+url.QueryEscape(`<`+exNS+`caf\u00e9>`), &hood)
	if r.StatusCode != http.StatusOK || len(hood.Nodes) == 0 || hood.Nodes[0].Value != string(entity) {
		t.Fatalf("/graph/neighborhood of the escaped spelling: status %d, nodes %+v, want %s first", r.StatusCode, hood.Nodes, entity)
	}
	for _, bad := range []string{
		"/graph/neighborhood?node=" + url.QueryEscape("_:"),
		"/graph/neighborhood?node=" + url.QueryEscape(`"a\qb"`),
		"/facets?filter=" + url.QueryEscape("<<"+string(note)+">=x"),
		"/facets?filter=" + url.QueryEscape(note.String()+`="open`),
		"/hetree?prop=" + url.QueryEscape("<<"+exNS+"population>"),
		"/hetree?prop=" + url.QueryEscape(`"`+exNS+`population"`),
	} {
		if r := getJSON(t, ts.URL+bad, &errorBody{}); r.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status = %d, want 400", bad, r.StatusCode)
		}
	}
}

func TestFacetsBadFilter400(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var e errorBody
	r := getJSON(t, ts.URL+"/facets?filter=nocut", &e)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", r.StatusCode)
	}
}

func TestNeighborhood(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var resp neighborhoodResponse
	u := ts.URL + "/graph/neighborhood?node=" + url.QueryEscape("<"+exNS+"athens>")
	r := getJSON(t, u, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if len(resp.Nodes) < 2 || resp.Nodes[0].Value != exNS+"athens" {
		t.Fatalf("nodes = %+v, want athens first with neighbors", resp.Nodes)
	}
	if len(resp.Edges) == 0 {
		t.Fatal("no edges in neighborhood")
	}
	for _, e := range resp.Edges {
		if e.From < 0 || e.From >= len(resp.Nodes) || e.To < 0 || e.To >= len(resp.Nodes) {
			t.Fatalf("edge index out of range: %+v", e)
		}
	}
	// 2 hops reaches strictly more of MiniLOD than 1.
	var wide neighborhoodResponse
	getJSON(t, u+"&hops=2", &wide)
	if len(wide.Nodes) <= len(resp.Nodes) {
		t.Fatalf("2-hop nodes = %d, want > %d", len(wide.Nodes), len(resp.Nodes))
	}
}

func TestNeighborhoodUnknownNode404(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	r := getJSON(t, ts.URL+"/graph/neighborhood?node="+url.QueryEscape("<http://nope.example/x>"), &errorBody{})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", r.StatusCode)
	}
}

func TestHETree(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var resp hetreeResponse
	u := ts.URL + "/hetree?prop=" + url.QueryEscape("<"+exNS+"population>") + "&budget=4"
	r := getJSON(t, u, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.Items != 8 { // 3 countries + 5 cities carry ex:population
		t.Fatalf("items = %d, want 8", resp.Items)
	}
	if len(resp.Nodes) == 0 || len(resp.Nodes) > 4 {
		t.Fatalf("nodes = %d, want 1..4 under budget", len(resp.Nodes))
	}
	total := 0
	for _, n := range resp.Nodes {
		total += n.Count
	}
	if total != resp.Items {
		t.Fatalf("level counts sum to %d, want %d", total, resp.Items)
	}
}

// TestHETreeSkipsNonFiniteValues: "NaN"^^xsd:double and "INF" are floats as
// far as parsing goes; one such statement used to turn every /hetree on the
// property into a 500 (json: unsupported value). They are left off the axis.
func TestHETreeSkipsNonFiniteValues(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	height, broken := rdf.IRI(exNS+"height"), rdf.IRI(exNS+"broken")
	var batch []rdf.Triple
	for i, lex := range []string{"1.5", "2.5", "4", "NaN", "INF", "-INF"} {
		o := rdf.NewTypedLiteral(lex, rdf.XSDDouble)
		batch = append(batch, rdf.T(rdf.IRI(fmt.Sprint(exNS, "tower", i)), height, o))
		if i >= 3 {
			batch = append(batch, rdf.T(rdf.IRI(fmt.Sprint(exNS, "tower", i)), broken, o))
		}
	}
	if _, err := st.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	var resp hetreeResponse
	r := getJSON(t, ts.URL+"/hetree?prop="+url.QueryEscape(string(height)), &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 over the finite values", r.StatusCode)
	}
	if resp.Items != 3 || len(resp.Nodes) != 1 || resp.Nodes[0].Min != 1.5 || resp.Nodes[0].Max != 4 || resp.Nodes[0].Mean != 8.0/3 {
		t.Fatalf("hierarchy over 3 finite and 3 non-finite values = %+v", resp)
	}
	r = getJSON(t, ts.URL+"/hetree?prop="+url.QueryEscape(string(broken)), &errorBody{})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("property with non-finite values only: status = %d, want 404", r.StatusCode)
	}
}

func TestHETreeUnknownProp404(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	r := getJSON(t, ts.URL+"/hetree?prop="+url.QueryEscape("<http://nope.example/p>"), &errorBody{})
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", r.StatusCode)
	}
}

func TestStats(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	var resp statsResponse
	r := getJSON(t, ts.URL+"/stats", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.Triples != st.Len() {
		t.Fatalf("triples = %d, want %d", resp.Triples, st.Len())
	}
	if len(resp.Predicates) == 0 || len(resp.Classes) == 0 {
		t.Fatalf("stats empty: %+v", resp)
	}
}

func TestHealthz(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	var resp healthzResponse
	r := getJSON(t, ts.URL+"/healthz", &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.Status != "ok" || resp.Triples != st.Len() || resp.Cache == nil {
		t.Fatalf("healthz = %+v", resp)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{CacheCapacity: -1})
	u := ts.URL + "/stats"
	getJSON(t, u, nil)
	resp := getJSON(t, u, nil)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("X-Cache = %q with caching disabled, want MISS", got)
	}
}

// TestConcurrentMixedTraffic drives reads and writes in parallel; under
// -race this pins the cross-layer locking (store, cache, limiter).
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	queries := []string{
		"SELECT ?s WHERE { ?s a <" + exNS + "City> }",
		"SELECT ?s ?o WHERE { ?s <" + exNS + "country> ?o }",
		"ASK { ?s ?p ?o }",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch i % 4 {
				case 0, 1, 2:
					u := ts.URL + "/sparql?query=" + url.QueryEscape(queries[(g+i)%len(queries)])
					resp, err := http.Get(u)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
							t.Errorf("status = %d", resp.StatusCode)
						}
					}
				case 3:
					nt := fmt.Sprintf("<%sw%d-%d> <%srelated> <%sathens> .\n", exNS, g, i, exNS, exNS)
					resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(nt))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestGracefulShutdown(t *testing.T) {
	st := gen.MiniLODStore()
	s := New(st, Config{Logger: discardLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestParseTermParam(t *testing.T) {
	cases := []struct {
		in   string
		want rdf.Term
	}{
		{"<http://e/x>", rdf.IRI("http://e/x")},
		{"http://e/x", rdf.IRI("http://e/x")},
		{"_:b1", rdf.BlankNode("b1")},
		{`"plain"`, rdf.NewLiteral("plain")},
		{`"bonjour"@fr`, rdf.NewLangLiteral("bonjour", "fr")},
		{`"5"^^<http://www.w3.org/2001/XMLSchema#integer>`, rdf.NewTypedLiteral("5", rdf.IRI("http://www.w3.org/2001/XMLSchema#integer"))},
		{"plainword", rdf.NewLiteral("plainword")},
		{`"a\"b\ttab"`, rdf.NewLiteral("a\"b\ttab")},
		{`"caf\u00e9"@FR`, rdf.NewLangLiteral("café", "fr")},
		{" _:a-b ", rdf.BlankNode("a-b")},
	}
	for _, c := range cases {
		got, err := parseTermParam(c.in)
		if err != nil {
			t.Fatalf("parseTermParam(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("parseTermParam(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", `"unterminated`, `"x"^^bad`, "_:", "<<x>", "<x", `"x"junk`, `"x\q"`} {
		if _, err := parseTermParam(bad); err == nil {
			t.Fatalf("parseTermParam(%q) succeeded, want error", bad)
		}
	}
}

func TestQueryErrorMapping(t *testing.T) {
	_, parseErr := sparql.ExecCtx(context.Background(), gen.MiniLODStore(), "SELECT {{{", sparql.Options{})
	status, _ := queryError(parseErr)
	if status != http.StatusBadRequest {
		t.Fatalf("parse error mapped to %d, want 400", status)
	}
	if status, _ := queryError(context.DeadlineExceeded); status != http.StatusGatewayTimeout {
		t.Fatalf("deadline mapped to %d, want 504", status)
	}
	if status, _ := queryError(context.Canceled); status != statusClientClosedRequest {
		t.Fatalf("cancel mapped to %d, want %d", status, statusClientClosedRequest)
	}
	if status, _ := queryError(fmt.Errorf("boom")); status != http.StatusInternalServerError {
		t.Fatalf("unknown error mapped to %d, want 500", status)
	}
}

// TestCacheKeyNoCollision is the regression test for decoded-parameter
// collisions: two requests whose decoded parameters differ must never share
// a cache key, even when naive '&'/'=' joining of decoded values would
// coincide.
func TestCacheKeyNoCollision(t *testing.T) {
	key := func(rawQuery string) string {
		req := httptest.NewRequest(http.MethodGet, "/facets?"+rawQuery, nil)
		return cacheKey(req.URL.Path, req.URL.Query())
	}
	// filter="p=v" with max=5  vs  a single filter "p=v&max=5".
	a := key("filter=p%3Dv&max=5")
	b := key("filter=p%3Dv%26max%3D5")
	if a == b {
		t.Fatalf("distinct decoded requests share cache key %q", a)
	}
	// Same decoded request, different parameter order: same key.
	c := key("max=5&filter=p%3Dv")
	if a != c {
		t.Fatalf("equivalent requests got distinct keys %q vs %q", a, c)
	}
}

// TestRepeatedParametersKeepTheirOrder: the handlers read the first value of
// a repeated parameter, so two requests that repeat one in different orders
// ask different questions and must not share a cache entry. Each is answered
// as a server without a cache answers it.
func TestRepeatedParametersKeepTheirOrder(t *testing.T) {
	st := gen.MiniLODStore()
	on := New(st, Config{Logger: discardLogger()})
	off := New(st, Config{Logger: discardLogger(), CacheCapacity: -1})
	pop, lat := url.QueryEscape(exNS+"population"), url.QueryEscape(string(rdf.GeoLat))
	for _, pair := range [][2]string{
		{"/search?q=Athens&q=Berlin", "/search?q=Berlin&q=Athens"},
		{"/hetree?prop=" + pop + "&prop=" + lat, "/hetree?prop=" + lat + "&prop=" + pop},
	} {
		_, _, first := serve(off, pair[0])
		if _, _, second := serve(off, pair[1]); first == second {
			t.Fatalf("%s and %s have one answer; the test needs two", pair[0], pair[1])
		}
		for _, target := range []string{pair[0], pair[1], pair[0], pair[1]} {
			_, _, want := serve(off, target)
			if code, xc, got := serve(on, target); code != http.StatusOK || got != want {
				t.Fatalf("%s: status %d, X-Cache %s, body\n%s\nwant\n%s", target, code, xc, got, want)
			}
		}
	}
}

// TestNegativeConfigDefaults pins that negative knobs fall back to defaults
// instead of panicking (make(chan, -1)) or insta-expiring every query.
func TestNegativeConfigDefaults(t *testing.T) {
	cfg := Config{MaxInFlight: -1, QueryTimeout: -time.Second, MaxFacetValues: -3, Parallelism: -2}.withDefaults()
	if cfg.MaxInFlight != 64 || cfg.QueryTimeout != 30*time.Second || cfg.MaxFacetValues != 25 || cfg.Parallelism < 1 {
		t.Fatalf("negative config not defaulted: %+v", cfg)
	}
	// Constructing and serving with negative knobs must work end to end.
	s := New(gen.MiniLODStore(), Config{MaxInFlight: -1, QueryTimeout: -time.Second, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape("ASK { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}

// TestEntriesDeclareLength: every response served from a cache entry — a
// cached 200 as MISS and as HIT, a BYPASS 200 and an uncached error — says
// its length, so the body leaves in one piece and not chunked; a 304 carries
// no body. The 200 bodies are over net/http's 2 KiB buffer, which it would
// otherwise send chunked.
func TestEntriesDeclareLength(t *testing.T) {
	s := New(synthStore(t, 50), Config{Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(target, ifNoneMatch string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	all := sparqlTarget(`SELECT * WHERE { ?s ?p ?o }`)
	var etag string
	for _, c := range []struct {
		target, cache string
		status        int
		big           bool
	}{
		{all, "MISS", http.StatusOK, true},
		{all, "HIT", http.StatusOK, true},
		{all + "&explain=1", "BYPASS", http.StatusOK, true},
		{sparqlTarget(`SELECT * WHERE {`), "MISS", http.StatusBadRequest, false},
	} {
		resp, body := get(c.target, "")
		if resp.StatusCode != c.status || resp.Header.Get("X-Cache") != c.cache {
			t.Fatalf("%s: status %d, X-Cache %q; want %d, %q", c.target, resp.StatusCode, resp.Header.Get("X-Cache"), c.status, c.cache)
		}
		if c.big && len(body) <= 2048 {
			t.Fatalf("%s: body of %d bytes; the test needs one over 2 KiB", c.target, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s (%s): Content-Length %d, Transfer-Encoding %v; want %d, none", c.target, c.cache, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if c.cache == "HIT" {
			etag = resp.Header.Get("ETag")
		}
	}
	resp, body := get(all, etag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d, %d body bytes; want 304 and none", resp.StatusCode, len(body))
	}
}

// TestAccessLogLines pins the access line's text for a buffered miss, a
// stream (which adds rows and stream) and a 400 (no cache disposition); the
// time and the duration, which vary, are left out.
func TestAccessLogLines(t *testing.T) {
	var out strings.Builder
	logger := slog.New(slog.NewTextHandler(&out, &slog.HandlerOptions{
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey || a.Key == "dur" {
				return slog.Attr{}
			}
			return a
		},
	}))
	s := New(synthStore(t, 50), Config{Logger: logger})
	q := url.QueryEscape(`SELECT * WHERE {?s ?p ?o} LIMIT 2`)
	for _, target := range []string{"/sparql?query=" + q, "/sparql/stream?query=" + q, "/graph/neighborhood"} {
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	}
	want := `level=INFO msg=request method=GET path=/sparql status=200 bytes=401 cache=MISS
level=INFO msg=request method=GET path=/sparql/stream status=200 bytes=391 cache=BYPASS rows=2 stream=completed
level=INFO msg=request method=GET path=/graph/neighborhood status=400 bytes=35 cache=""
`
	if got := out.String(); got != want {
		t.Fatalf("access lines:\n%s\nwant\n%s", got, want)
	}
}
