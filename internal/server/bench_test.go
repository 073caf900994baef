package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// synthStore builds a join-heavy synthetic dataset: n items, each typed,
// named, and linked to one of n/10 hub entities which are named in turn.
// The benchmark query walks item -> hub -> name, which is expensive enough
// cold that the cache-hit ratio is unambiguous.
func synthStore(tb testing.TB, n int) *store.Store {
	tb.Helper()
	const ns = "http://bench.example/"
	var triples []rdf.Triple
	typ := rdf.IRI(ns + "Item")
	for i := 0; i < n; i++ {
		item := rdf.IRI(fmt.Sprintf("%sitem/%d", ns, i))
		hub := rdf.IRI(fmt.Sprintf("%shub/%d", ns, i%(n/10)))
		triples = append(triples,
			rdf.Triple{S: item, P: rdf.RDFType, O: typ},
			rdf.Triple{S: item, P: rdf.IRI(ns + "name"), O: rdf.NewLiteral(fmt.Sprintf("item %d", i))},
			rdf.Triple{S: item, P: rdf.IRI(ns + "ref"), O: hub},
		)
	}
	for i := 0; i < n/10; i++ {
		hub := rdf.IRI(fmt.Sprintf("%shub/%d", ns, i))
		triples = append(triples, rdf.Triple{S: hub, P: rdf.IRI(ns + "name"), O: rdf.NewLiteral(fmt.Sprintf("hub %d", i))})
	}
	st, err := store.Load(triples)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

const benchQuery = `SELECT ?item ?hubName WHERE {
  ?item a <http://bench.example/Item> .
  ?item <http://bench.example/ref> ?hub .
  ?hub <http://bench.example/name> ?hubName
}`

func benchURL(ts *httptest.Server) string {
	return ts.URL + "/sparql?query=" + url.QueryEscape(benchQuery)
}

// timedGet times one GET of u to its headers, then reads the body out, so
// the client keeps the connection for the next request.
func timedGet(tb testing.TB, client *http.Client, u, wantCache string) time.Duration {
	tb.Helper()
	start := time.Now()
	resp, err := client.Get(u)
	if err != nil {
		tb.Fatal(err)
	}
	elapsed := time.Since(start)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); wantCache != "" && got != wantCache {
		tb.Fatalf("X-Cache = %q, want %q", got, wantCache)
	}
	return elapsed
}

// TestCacheHitLatency is the acceptance measurement: a repeated identical
// query must be at least 10x faster served from the cache than evaluated
// cold. Cold samples bypass the cache via distinct LIMIT offsets baked into
// otherwise-identical queries; medians over several samples keep scheduler
// noise out.
func TestCacheHitLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	st := synthStore(t, 5000)
	s := New(st, Config{Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}

	const samples = 5
	// Cold: each sample is a distinct query text (different LIMIT), so each
	// one parses, plans, and evaluates the full join.
	cold := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		q := fmt.Sprintf("%s LIMIT %d", benchQuery, 100000+i)
		u := ts.URL + "/sparql?query=" + url.QueryEscape(q)
		cold = append(cold, timedGet(t, client, u, "MISS"))
	}
	// Hot: one warmed query, repeatedly.
	u := benchURL(ts)
	timedGet(t, client, u, "MISS")
	hot := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		hot = append(hot, timedGet(t, client, u, "HIT"))
	}

	sort.Slice(cold, func(i, j int) bool { return cold[i] < cold[j] })
	sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
	coldMed, hotMed := cold[samples/2], hot[samples/2]
	t.Logf("cold median = %v, hot median = %v, speedup = %.1fx",
		coldMed, hotMed, float64(coldMed)/float64(hotMed))
	if hotMed*10 > coldMed {
		t.Fatalf("cache hit not >=10x faster: cold median %v, hot median %v", coldMed, hotMed)
	}
}

// BenchmarkSPARQLCold is buffered /sparql over HTTP with the cache off:
// benchQuery's 5 000-row join without LIMIT, which the paged source serves
// and Stream.JSON appends into the body row by row.
func BenchmarkSPARQLCold(b *testing.B) {
	st := synthStore(b, 5000)
	s := New(st, Config{CacheCapacity: -1, Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}
	u := benchURL(ts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timedGet(b, client, u, "MISS")
	}
}

// BenchmarkSPARQLCacheHit serves benchQuery's 5 000-row join from the
// response cache over one kept-alive connection.
func BenchmarkSPARQLCacheHit(b *testing.B) {
	benchCacheHit(b, benchURL)
}

// BenchmarkSPARQLCacheHitPage is the cache hit on a page-sized body: the
// join with LIMIT 100, about the mean body of a revisited view in the
// end-to-end benchmark's session_warm.
func BenchmarkSPARQLCacheHitPage(b *testing.B) {
	benchCacheHit(b, func(ts *httptest.Server) string {
		return ts.URL + "/sparql?query=" + url.QueryEscape(benchQuery+" LIMIT 100")
	})
}

func benchCacheHit(b *testing.B, target func(*httptest.Server) string) {
	st := synthStore(b, 5000)
	s := New(st, Config{Logger: discardLogger()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{}
	u := target(ts)
	timedGet(b, client, u, "MISS")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timedGet(b, client, u, "HIT")
	}
}

// discardWriter is a ResponseWriter that keeps nothing: the stream
// benchmarks measure the handler and its encoding, not a recorder's buffer.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) WriteHeader(int)             {}
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) Flush()                      {}

// benchStream serves target b.N times over synthStore(items); -benchmem's
// allocs/op is the allocations of one whole stream.
func benchStream(b *testing.B, items int, target string) {
	s := New(synthStore(b, items), Config{CacheCapacity: -1, Logger: discardLogger()})
	h := s.Handler()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(discardWriter{h: http.Header{}}, r)
	}
}

// BenchmarkSPARQLStream streams 600 rows of the item → hub → name join, the
// size of a session's /sparql/stream in the end-to-end benchmark.
func BenchmarkSPARQLStream(b *testing.B) {
	benchStream(b, 5000, "/sparql/stream?query="+url.QueryEscape(benchQuery+" LIMIT 600"))
}

// BenchmarkFacetsStream streams the facet distribution on both sides of the
// probe rule. Unfiltered, 5 000 entities walk the store's 15 500 statements,
// less than one page, so the stream is its done line alone; 12 000 entities
// walk 37 200 statements, past two 16 384-statement pages, so the stream
// sends two estimates before done. Filtered to one hub's 10 items, the view
// is probed and its exact done line is the stream.
func BenchmarkFacetsStream(b *testing.B) {
	b.Run("unfiltered", func(b *testing.B) { benchStream(b, 5000, "/facets/stream") })
	b.Run("unfiltered_multipage", func(b *testing.B) { benchStream(b, 12000, "/facets/stream") })
	b.Run("filtered", func(b *testing.B) {
		benchStream(b, 5000, "/facets/stream?filter="+url.QueryEscape("<http://bench.example/ref>=<http://bench.example/hub/3>"))
	})
}
