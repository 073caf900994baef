package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
)

// newHTTPTestServer serves an already-built Server (newTestServer builds
// its own store; this variant lets a test supply a wrapped query source).
func newHTTPTestServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// streamLine is the union of every NDJSON line shape the endpoint emits.
type streamLine struct {
	Vars    []string `json:"vars"`
	Boolean *bool    `json:"boolean"`
	Done    *bool    `json:"done"`
	Rows    int      `json:"rows"`
	Error   string   `json:"error"`
	raw     map[string]json.RawMessage
}

func streamGet(t *testing.T, base, query string) []streamLine {
	t.Helper()
	resp, err := http.Get(base + "/sparql/stream?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != streamContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, streamContentType)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "BYPASS" {
		t.Fatalf("X-Cache = %q, want BYPASS", xc)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		json.Unmarshal(sc.Bytes(), &ln.raw)
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStreamEndpointSelect: head line, one line per row, done trailer —
// and the rows match the buffered /sparql endpoint's bindings.
func TestStreamEndpointSelect(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5`
	lines := streamGet(t, ts.URL, q)
	if len(lines) != 7 { // head + 5 rows + trailer
		t.Fatalf("got %d lines, want 7", len(lines))
	}
	if len(lines[0].Vars) != 3 {
		t.Fatalf("head vars = %v, want 3 names", lines[0].Vars)
	}
	last := lines[len(lines)-1]
	if last.Done == nil || !*last.Done || last.Rows != 5 {
		t.Fatalf("trailer = %+v, want done with 5 rows", last)
	}
	// Differential against /sparql.
	var doc sparqlDoc
	getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
	for i, b := range doc.Results.Bindings {
		row := lines[i+1].raw
		if len(row) != len(b) {
			t.Fatalf("row %d: stream has %d bindings, buffered has %d", i, len(row), len(b))
		}
		for name, term := range b {
			var st struct {
				Value string `json:"value"`
			}
			if err := json.Unmarshal(row[name], &st); err != nil || st.Value != term.Value {
				t.Errorf("row %d var %s: stream %s, buffered %s", i, name, row[name], term.Value)
			}
		}
	}
}

func TestStreamEndpointAsk(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	lines := streamGet(t, ts.URL, `ASK { ?s ?p ?o }`)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Boolean == nil || !*lines[0].Boolean {
		t.Fatalf("boolean line = %+v, want true", lines[0])
	}
	if lines[1].Done == nil || !*lines[1].Done {
		t.Fatalf("trailer = %+v, want done", lines[1])
	}
}

func TestStreamEndpointParseError(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/sparql/stream?query=" + url.QueryEscape("SELECT ?s WHERE {"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// gatedSource wraps the store and blocks its decoding — the driver's one
// Terms call a page — once `free` IDs in all have been asked for, until the
// gate channel is closed: the deliberately slow store wrapper. Evaluation
// provably cannot finish while the gate is shut, so anything the client has
// read by then was delivered mid-evaluation.
type gatedSource struct {
	*store.Store
	free int64
	gate chan struct{}
	seen atomic.Int64
}

func (g *gatedSource) Terms(ids []store.ID) []rdf.Term {
	if g.seen.Add(int64(len(ids))) > g.free {
		<-g.gate
	}
	return g.Store.Terms(ids)
}

// TestStreamFirstRowBeforeEvaluationCompletes is the streaming guarantee:
// the first NDJSON row reaches the client while the engine is still
// mid-scan (the gated source blocks after the first page's decode; the
// full pattern has hundreds of rows).
func TestStreamFirstRowBeforeEvaluationCompletes(t *testing.T) {
	st := gen.MiniLODStore()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // a failing test must not leave the handler blocked
	// free covers the driver's first page (streamBatchInit rows of three
	// columns) and nothing more: decoding blocks at the second page while
	// the client must already hold the first rows.
	src := &gatedSource{Store: st, free: 12, gate: gate}
	s := New(st, Config{Logger: discardLogger(), source: src})
	ts := newHTTPTestServer(t, s)

	resp, err := http.Get(ts + "/sparql/stream?query=" + url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	readLine := func() string {
		linec := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			if sc.Scan() {
				linec <- sc.Text()
			} else {
				errc <- sc.Err()
			}
		}()
		select {
		case ln := <-linec:
			return ln
		case err := <-errc:
			t.Fatalf("stream ended early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a streamed line while the scan was gated")
		}
		return ""
	}
	head := readLine()
	if !strings.Contains(head, "vars") {
		t.Fatalf("first line is not a head: %q", head)
	}
	firstRow := readLine()
	if !strings.Contains(firstRow, `"uri"`) && !strings.Contains(firstRow, `"literal"`) && !strings.Contains(firstRow, `"bnode"`) {
		t.Fatalf("second line is not a binding row: %q", firstRow)
	}
	// The gate is still shut: evaluation cannot have completed, yet the
	// client holds a row. Release the scan and drain the rest.
	release()
	sawDone := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done":true`) {
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("missing done trailer after releasing the gate")
	}
}

// TestStreamMatchesBufferedAcrossShapes: for representative query shapes
// (incremental and materializing alike) the streamed row sequence equals
// the buffered endpoint's bindings array.
func TestStreamMatchesBufferedAcrossShapes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, q := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT 3 OFFSET 2`,
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s LIMIT 4`,
		`SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 5`,
	} {
		lines := streamGet(t, ts.URL, q)
		var doc struct {
			Results struct {
				Bindings []map[string]json.RawMessage `json:"bindings"`
			} `json:"results"`
		}
		getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
		gotRows := len(lines) - 2
		if gotRows != len(doc.Results.Bindings) {
			t.Errorf("%s: streamed %d rows, buffered %d", q, gotRows, len(doc.Results.Bindings))
			continue
		}
		for i, want := range doc.Results.Bindings {
			if got := lines[1+i].raw; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: row %d streamed %s, buffered %s", q, i, got, want)
			}
		}
	}
}

// flushRecorder is a ResponseRecorder that counts its flushes, fails them
// when failFlush is set (a client gone with its writes still buffered), and
// counts every write or flush made after returned is set.
type flushRecorder struct {
	*httptest.ResponseRecorder
	failFlush bool
	flushes   atomic.Int64
	returned  atomic.Bool
	late      atomic.Int64
}

func (f *flushRecorder) Write(p []byte) (int, error) {
	if f.returned.Load() {
		f.late.Add(1)
	}
	return f.ResponseRecorder.Write(p)
}

func (f *flushRecorder) FlushError() error {
	if f.returned.Load() {
		f.late.Add(1)
	}
	f.flushes.Add(1)
	if f.failFlush {
		return errors.New("client gone")
	}
	f.ResponseRecorder.Flush()
	return nil
}

// TestSPARQLStreamBytesMatchEncoder: every line of /sparql/stream is the
// json.Encoder encoding of the value the endpoint used to build for it —
// the head, a map per row over the rows the buffered query returns, the
// trailer, the ASK line — and the buffered /sparql body is the json.Marshal
// of the document it used to build, with the ETag of those bytes.
func TestSPARQLStreamBytesMatchEncoder(t *testing.T) {
	s, _, st := newTestServer(t, Config{})
	enc := func(b *bytes.Buffer, v any) {
		if err := json.NewEncoder(b).Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT * WHERE { ?s ?p ?o } LIMIT 7`,
		`SELECT ?o ?s WHERE { ?s ?p ?o } ORDER BY DESC(?o) LIMIT 20`,
		`SELECT ?s ?missing WHERE { ?s ?p ?o OPTIONAL { ?s <http://nowhere/p> ?missing } } LIMIT 5`,
		`SELECT ?s WHERE { ?s <http://nowhere/p> ?o }`,
		// session_cold's shape: a 2-pattern join on a literal, no LIMIT.
		`SELECT ?s ?v WHERE { ?s <http://www.w3.org/2000/01/rdf-schema#label> "Athens"@en . ?s <` + exNS + `population> ?v }`,
		`SELECT ?c ?pop WHERE { ?c <` + exNS + `country> <` + exNS + `greece> . ?c <` + exNS + `population> ?pop }`,
		// A VALUES or BIND prefix seeds the run.
		`SELECT ?c ?pop ?tag WHERE { VALUES (?c ?tag) { (<` + exNS + `athens> "a") (UNDEF "u") (<` + exNS + `nowhere> "n") } ?c <` + exNS + `population> ?pop }`,
		`SELECT ?k ?s ?o WHERE { BIND("k" AS ?k) ?s <` + exNS + `country> ?o }`,
		// A FILTER after the run.
		`SELECT ?s ?v WHERE { ?s <` + exNS + `population> ?v FILTER(?v > 1000000) }`,
		// ORDER BY a variable that is not projected, with LIMIT.
		`SELECT ?s WHERE { ?s <` + exNS + `population> ?v } ORDER BY DESC(?v) LIMIT 3`,
		`SELECT DISTINCT ?o WHERE { ?s <` + exNS + `country> ?o } OFFSET 1`,
		`SELECT ?s (STR(?o) AS ?x) WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?o }`,
		`SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <` + exNS + `country> ?o } GROUP BY ?o`,
		// SELECT * leaves out a _-prefixed variable.
		`SELECT * WHERE { ?p <` + exNS + `livesIn> ?_city . ?_city <` + exNS + `country> ?c }`,
		`ASK { ?s ?p ?o }`,
		`ASK { ?s <http://nowhere/p> ?o }`,
	} {
		res, err := sparql.ExecCtx(context.Background(), st, q, sparql.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		type results struct {
			Bindings []map[string]sparql.JSONTerm `json:"bindings"`
		}
		var doc struct {
			Head struct {
				Vars []string `json:"vars,omitempty"`
			} `json:"head"`
			Results *results `json:"results,omitempty"`
			Boolean *bool    `json:"boolean,omitempty"`
		}
		doc.Head.Vars = res.Vars
		if res.Form == sparql.FormAsk {
			doc.Boolean = &res.Ask
			enc(&want, struct {
				Boolean bool `json:"boolean"`
			}{res.Ask})
			enc(&want, struct {
				Done bool `json:"done"`
				Rows int  `json:"rows"`
			}{true, 0})
		} else {
			doc.Results = &results{Bindings: []map[string]sparql.JSONTerm{}}
			enc(&want, struct {
				Vars []string `json:"vars"`
			}{res.Vars})
			for _, row := range res.Rows {
				m := map[string]sparql.JSONTerm{}
				for name, term := range row {
					if term != nil {
						m[name] = sparql.EncodeTerm(term)
					}
				}
				enc(&want, m)
				doc.Results.Bindings = append(doc.Results.Bindings, m)
			}
			enc(&want, struct {
				Done bool `json:"done"`
				Rows int  `json:"rows"`
			}{true, len(res.Rows)})
		}
		rec := httptest.NewRecorder()
		s.handleSPARQLStream(rec, httptest.NewRequest(http.MethodGet, "/sparql/stream?query="+url.QueryEscape(q), nil))
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("%s:\n got %s\nwant %s", q, got, want.String())
		}
		wantBody, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		rec = httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(q), nil))
		if got := rec.Body.Bytes(); !bytes.Equal(got, wantBody) {
			t.Errorf("/sparql %s:\n got %s\nwant %s", q, got, wantBody)
		}
		if got := rec.Header().Get("ETag"); got != etagFor(wantBody) {
			t.Errorf("/sparql %s: ETag %s, want %s", q, got, etagFor(wantBody))
		}
	}
}

// TestSPARQLStreamBuildsNoBindings: session_cold's stream, a 2-pattern
// join on a category literal without LIMIT, leaves the engine as result
// columns — lodviz_engine_bindings_total does not move while its rows
// stream, nor while buffered /sparql answers the same join from the paged
// source — and the same query with a FILTER after the run does build them.
func TestSPARQLStreamBuildsNoBindings(t *testing.T) {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 2000, NumericProps: 1, CategoryProps: 1, Categories: 20, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Config{Logger: discardLogger(), CacheCapacity: -1})
	join := `SELECT ?s ?v WHERE { ?s <` + string(gen.Prop("cat0")) + `> "category-7" . ?s <` + string(gen.Prop("num0")) + `> ?v }`
	stream := func(q string) (rows int) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql/stream?query="+url.QueryEscape(q), nil))
		body := rec.Body.String()
		if !strings.HasSuffix(body, `"done":true,"rows":`+strconv.Itoa(strings.Count(body, "\n")-2)+"}\n") {
			t.Fatalf("%s: stream did not complete: %.200s", q, body)
		}
		return strings.Count(body, "\n") - 2
	}
	if rows := stream(join); rows < 50 {
		t.Fatalf("%d rows, want about 100", rows)
	}
	if got := s.engineMet.BindingsBuilt.Value(); got != 0 {
		t.Errorf("lodviz_engine_bindings_total = %d after the join's stream, want 0", got)
	}
	streamed := s.engineMet.QueriesStreamed.Value()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(join), nil))
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"s":`) < 50 {
		t.Fatalf("/sparql: status %d, body %.200s", rec.Code, rec.Body.String())
	}
	if got := s.engineMet.BindingsBuilt.Value(); got != 0 {
		t.Errorf("lodviz_engine_bindings_total = %d after the buffered join, want 0", got)
	}
	if got := s.engineMet.QueriesStreamed.Value(); got != streamed+1 {
		t.Errorf("lodviz_engine_queries_streamed_total moved %d → %d on the buffered join, want +1", streamed, got)
	}
	filtered := strings.TrimSuffix(join, " }") + ` FILTER(?v >= 0) }`
	if rows := stream(filtered); rows < 50 || s.engineMet.BindingsBuilt.Value() != uint64(rows) {
		t.Errorf("filtered stream: %d rows, %d Bindings built", rows, s.engineMet.BindingsBuilt.Value())
	}
}

// TestStreamFlushPolicy: a 600-row stream flushes with its first row,
// once per 32 KiB and with its trailer — not once per line — and
// lodviz_http_stream_flushes_total counts those flushes. The timer is
// pushed out of the way; TestFacetsStreamTimerFlushesStalledBatch tests it.
func TestStreamFlushPolicy(t *testing.T) {
	s := New(synthStore(t, 300), Config{Logger: discardLogger(), CacheCapacity: -1})
	s.flushDelay = time.Hour
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	q := `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 600`
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql/stream?query="+url.QueryEscape(q), nil))
	body := rec.Body.Bytes()
	if lines := bytes.Count(body, []byte("\n")); lines != 602 || !bytes.HasSuffix(body, []byte(`{"done":true,"rows":600}`+"\n")) {
		t.Fatalf("%d lines ending %q, want head, 600 rows and the done trailer", lines, body[len(body)-40:])
	}
	flushes := rec.flushes.Load()
	t.Logf("%d flushes for %d bytes in 602 lines", flushes, len(body))
	if bound := int64((len(body)+streamFlushBytes-1)/streamFlushBytes + 2); flushes < 2 || flushes > bound {
		t.Fatalf("%d flushes for %d bytes in 602 lines, want 2..%d", flushes, len(body), bound)
	}
	if got := s.met.streamFlushes.With("/sparql/stream").Value(); got != uint64(flushes) {
		t.Errorf("lodviz_http_stream_flushes_total = %d, want the %d flushes made", got, flushes)
	}
}

// TestStreamFlushFailureAborts: a client whose writes still land in the
// buffer but whose flush fails is gone. The stream stops evaluating at
// that flush and reports aborted, as after a failed write.
func TestStreamFlushFailureAborts(t *testing.T) {
	s, _, _ := newTestServer(t, Config{CacheCapacity: -1})
	s.flushDelay = time.Hour // the first row's flush is the first flush
	for _, tc := range []struct {
		target   string
		maxLines int
		handle   http.HandlerFunc
	}{
		{"/sparql/stream?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`), 2, s.handleSPARQLStream},
		{"/facets/stream", 1, s.handleFacetsStream},
		{"/stats/stream", 1, s.handleStatsStream},
	} {
		fr := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), failFlush: true}
		rec := &statusRecorder{ResponseWriter: fr, status: http.StatusOK}
		tc.handle(rec, httptest.NewRequest(http.MethodGet, tc.target, nil))
		if rec.streamOutcome != streamAborted || rec.streamRows != 0 {
			t.Errorf("%s: outcome %q after %d rows, want aborted after 0", tc.target, rec.streamOutcome, rec.streamRows)
		}
		if lines := strings.Count(fr.Body.String(), "\n"); lines > tc.maxLines || fr.flushes.Load() != 1 {
			t.Errorf("%s: %d lines and %d flushes written, want evaluation stopped at the first failed flush", tc.target, lines, fr.flushes.Load())
		}
	}
}

// TestStreamNoWriteAfterReturn: with the flush timer racing the handlers'
// end, none of many short streams — completed or with the client gone
// mid-stream — writes or flushes after its handler has returned (run it
// under -race: the timer's flush and the handler's writes share a writer).
func TestStreamNoWriteAfterReturn(t *testing.T) {
	s, _, _ := newTestServer(t, Config{CacheCapacity: -1})
	s.flushDelay = 20 * time.Microsecond
	targets := []string{
		"/sparql/stream?query=" + url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 40`),
		"/sparql/stream?query=" + url.QueryEscape(`ASK { ?s ?p ?o }`),
		"/facets/stream",
		"/stats/stream",
	}
	var recs []*flushRecorder
	for i := 0; i < 200; i++ {
		rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder(), failFlush: i%5 == 4}
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, targets[i%len(targets)], nil))
		rec.returned.Store(true)
		recs = append(recs, rec)
	}
	time.Sleep(10 * time.Millisecond) // long past every timer's delay
	for i, rec := range recs {
		if n := rec.late.Load(); n != 0 {
			t.Errorf("stream %d (%s): %d writes or flushes after the handler returned", i, targets[i%len(targets)], n)
		}
		if i%5 != 4 && !strings.Contains(rec.Body.String(), `"done":true`) {
			t.Errorf("stream %d (%s) did not complete: %q", i, targets[i%len(targets)], rec.Body.String())
		}
	}
}
