package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
)

func TestCORSHeadersOnEveryResponse(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/stats", "/sparql?query=" + url.QueryEscape("ASK { }")} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("Access-Control-Allow-Origin"); got != "*" {
			t.Errorf("%s: Access-Control-Allow-Origin = %q, want *", path, got)
		}
		if got := resp.Header.Get("Access-Control-Expose-Headers"); !strings.Contains(got, "ETag") {
			t.Errorf("%s: Access-Control-Expose-Headers = %q", path, got)
		}
	}
}

func TestCORSPreflight(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodOptions, ts.URL+"/sparql", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Origin", "http://explorer.example")
	req.Header.Set("Access-Control-Request-Method", "POST")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("preflight status = %d, want 204", resp.StatusCode)
	}
	allow := resp.Header.Get("Access-Control-Allow-Methods")
	for _, m := range []string{"GET", "POST", "OPTIONS"} {
		if !strings.Contains(allow, m) {
			t.Errorf("Allow-Methods %q missing %s", allow, m)
		}
	}
	if got := resp.Header.Get("Access-Control-Allow-Headers"); !strings.Contains(got, "Content-Type") {
		t.Errorf("Allow-Headers = %q", got)
	}
	if got := resp.Header.Get("Access-Control-Max-Age"); got == "" {
		t.Error("Max-Age missing on preflight")
	}
}

// TestNoCORSOnWriteRoute pins the deliberate asymmetry: the unauthenticated
// write path must not approve cross-origin requests, or any webpage could
// mutate a reachable store through a visitor's browser.
func TestNoCORSOnWriteRoute(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodOptions, ts.URL+"/triples", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Origin", "http://evil.example")
	req.Header.Set("Access-Control-Request-Method", "POST")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		t.Fatal("preflight on /triples approved; writes must not be CORS-enabled")
	}
	if got := resp.Header.Get("Access-Control-Allow-Origin"); got != "" {
		t.Errorf("Access-Control-Allow-Origin = %q on write route, want unset", got)
	}

	// Direct (non-browser) POSTs keep working and also carry no CORS grant.
	post, err := http.Post(ts.URL+"/triples", "application/n-triples",
		strings.NewReader("<http://e/s> <http://e/p> \"v\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("direct POST /triples status = %d", post.StatusCode)
	}
	if got := post.Header.Get("Access-Control-Allow-Origin"); got != "" {
		t.Errorf("Access-Control-Allow-Origin = %q on POST response, want unset", got)
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var doc struct {
		Query string `json:"query"`
		Hits  []struct {
			Entity struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			} `json:"entity"`
			Score   float64 `json:"score"`
			Snippet string  `json:"snippet"`
		} `json:"hits"`
	}
	resp := getJSON(t, ts.URL+"/search?q=athens", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(doc.Hits) == 0 {
		t.Fatal("search for athens found nothing in MiniLOD")
	}
	if doc.Hits[0].Score <= 0 {
		t.Errorf("top hit score = %v", doc.Hits[0].Score)
	}

	// Repeat request is a cache hit (nothing was written in between).
	resp = getJSON(t, ts.URL+"/search?q=athens", &doc)
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("X-Cache on repeat = %q, want HIT", got)
	}

	// Missing q is a client error.
	resp = getJSON(t, ts.URL+"/search", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing q: status = %d, want 400", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/search?q=athens&limit=0", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=0: status = %d, want 400", resp.StatusCode)
	}
}

func TestCompleteEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var doc struct {
		Prefix      string   `json:"prefix"`
		Completions []string `json:"completions"`
	}
	resp := getJSON(t, ts.URL+"/complete?prefix=ath", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	found := false
	for _, c := range doc.Completions {
		if c == "athens" {
			found = true
		}
	}
	if !found {
		t.Errorf("completions = %v, want athens", doc.Completions)
	}
	resp = getJSON(t, ts.URL+"/complete", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing prefix: status = %d, want 400", resp.StatusCode)
	}
}

// TestSearchSeesWrites pins the index-rebuild contract: a write advances
// the generation and the next search runs over a fresh index.
func TestSearchSeesWrites(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	var doc struct {
		Hits []struct {
			Snippet string `json:"snippet"`
		} `json:"hits"`
	}
	getJSON(t, ts.URL+"/search?q=zanzibar", &doc)
	if len(doc.Hits) != 0 {
		t.Fatalf("zanzibar already present: %+v", doc.Hits)
	}
	if _, err := st.AddBatch([]rdf.Triple{{
		S: rdf.IRI(exNS + "zanzibar"),
		P: rdf.IRI(exNS + "label"),
		O: rdf.NewLiteral("Zanzibar old town"),
	}}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/search?q=zanzibar", &doc)
	if len(doc.Hits) == 0 {
		t.Fatal("search does not see the ingested entity after a write")
	}
}

// TestServiceMentionDoesNotBypassCache pins exact SERVICE detection: a
// query whose IRIs merely contain the word keeps response caching.
func TestServiceMentionDoesNotBypassCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := url.QueryEscape(`SELECT * WHERE { ?s <http://example.org/services/offered> ?o }`)
	for i, want := range []string{"MISS", "HIT"} {
		resp, err := http.Get(ts.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("request %d: X-Cache = %q, want %q", i, got, want)
		}
	}
}

func TestFederationEndpointEmptyMesh(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	var doc struct {
		Endpoints []struct{} `json:"endpoints"`
		Cache     *struct{}  `json:"cache"`
	}
	resp := getJSON(t, ts.URL+"/federation", &doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(doc.Endpoints) != 0 {
		t.Errorf("endpoints = %d, want 0 on a fresh node", len(doc.Endpoints))
	}
	if doc.Cache == nil {
		t.Error("cache stats missing (default mesh caches)")
	}
}

func TestFederationEndpointListsPeers(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Peers: []string{"http://peer-b.example/sparql"}})
	var doc struct {
		Endpoints []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"endpoints"`
	}
	getJSON(t, ts.URL+"/federation", &doc)
	if len(doc.Endpoints) != 1 || doc.Endpoints[0].URL != "http://peer-b.example/sparql" {
		t.Fatalf("endpoints = %+v", doc.Endpoints)
	}
	if doc.Endpoints[0].State != "closed" {
		t.Errorf("fresh peer state = %q, want closed", doc.Endpoints[0].State)
	}
}

// TestAdHocServiceEndpointsStayBounded: 1 000 queries, each naming its own
// SERVICE endpoint, leave the federation registry at its bound and the
// lodviz_federation_endpoint_* series on /metrics as many as before them;
// a peer keeps its series, and endpoint="other" counts every ad-hoc
// request and failure, evicted endpoints' included.
func TestAdHocServiceEndpointsStayBounded(t *testing.T) {
	remote := httptest.NewServer(http.NotFoundHandler()) // fails fast, not retried
	t.Cleanup(remote.Close)
	s := New(gen.MiniLODStore(), Config{Logger: discardLogger(), CacheCapacity: -1, Peers: []string{remote.URL + "/peer"}})
	get := func(target string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	series := func() []string {
		var out []string
		for _, line := range strings.Split(get("/metrics"), "\n") {
			if strings.HasPrefix(line, "lodviz_federation_endpoint_") {
				out = append(out, line)
			}
		}
		return out
	}
	before := series()
	var atHalf int
	for i := 0; i < 1000; i++ {
		if i == 500 {
			atHalf = len(s.mesh.Status())
		}
		q := fmt.Sprintf(`SELECT * WHERE { SERVICE SILENT <%s/e%d> { ?s ?p ?o } }`, remote.URL, i)
		get("/sparql?query=" + url.QueryEscape(q))
	}
	if n := len(s.mesh.Status()); n != atHalf || n >= 500 {
		t.Errorf("registry holds %d endpoints after 1 000 distinct SERVICE URLs, %d after 500; want it bounded", n, atHalf)
	}
	var fed struct {
		Endpoints []json.RawMessage `json:"endpoints"`
	}
	if err := json.Unmarshal([]byte(get("/federation")), &fed); err != nil || len(fed.Endpoints) != atHalf {
		t.Errorf("/federation lists %d endpoints (%v), want %d", len(fed.Endpoints), err, atHalf)
	}
	after := series()
	if len(after) != len(before) {
		t.Errorf("%d federation endpoint series before, %d after:\n%s", len(before), len(after), strings.Join(after, "\n"))
	}
	for _, want := range []string{
		`lodviz_federation_endpoint_requests_total{endpoint="other"} 1000`,
		`lodviz_federation_endpoint_failures_total{endpoint="other"} 1000`,
		`lodviz_federation_endpoint_state{endpoint="` + remote.URL + `/peer",state="closed"} 1`,
	} {
		if !slices.Contains(after, want) {
			t.Errorf("missing %s in:\n%s", want, strings.Join(after, "\n"))
		}
	}
}
