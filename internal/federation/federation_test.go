package federation

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/turtle"
)

// Test topology: cities live locally, countries live on the remote peer.
const citiesTTL = `
@prefix ex: <http://example.org/> .
ex:athens ex:locatedIn ex:greece ; ex:population 664046 .
ex:patras ex:locatedIn ex:greece ; ex:population 213984 .
ex:lyon ex:locatedIn ex:france ; ex:population 513275 .
ex:bordeaux ex:locatedIn ex:france ; ex:population 252040 .
ex:atlantis ex:locatedIn ex:nowhere .
`

const countriesTTL = `
@prefix ex: <http://example.org/> .
ex:greece ex:name "Greece"@en ; ex:continent ex:europe .
ex:france ex:name "France"@en ; ex:continent ex:europe .
ex:japan ex:name "Japan"@en ; ex:continent ex:asia .
`

func mustStore(t testing.TB, ttl string) *store.Store {
	t.Helper()
	triples, err := turtle.ParseString(ttl)
	if err != nil {
		t.Fatalf("turtle: %v", err)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return st
}

// sparqlEndpoint is a minimal SPARQL Protocol endpoint over one store —
// what any conformant peer looks like to the federation layer.
func sparqlEndpoint(t testing.TB, st *store.Store, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		q := r.Form.Get("query")
		res, err := sparql.ExecCtx(context.Background(), st, q, sparql.Options{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, err := res.JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", sparql.JSONContentType)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func canon(rows []sparql.Binding) string {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k + "=" + r[k].String() + " ")
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// localFetch evaluates generated subqueries directly against a store —
// bind-join unit testing without HTTP in the way.
func localFetch(st *store.Store) fetchFunc {
	return func(_ context.Context, query string) ([]sparql.Binding, error) {
		res, err := sparql.ExecCtx(context.Background(), st, query, sparql.Options{})
		if err != nil {
			return nil, fmt.Errorf("remote eval of %q: %w", query, err)
		}
		return res.Rows, nil
	}
}

func parsePattern(t *testing.T, src string) *sparql.Group {
	t.Helper()
	q, err := sparql.Parse("SELECT * WHERE " + src)
	if err != nil {
		t.Fatalf("parse pattern %q: %v", src, err)
	}
	return q.Where
}

func TestBindJoinMatchesDirectJoin(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	pattern := parsePattern(t, `{ ?country <http://example.org/name> ?name }`)

	ex := func(s string) rdf.IRI { return rdf.IRI("http://example.org/" + s) }
	bindings := []sparql.Binding{
		{"city": ex("athens"), "country": ex("greece")},
		{"city": ex("patras"), "country": ex("greece")},
		{"city": ex("lyon"), "country": ex("france")},
		{"city": ex("atlantis"), "country": ex("nowhere")}, // no remote match
		{"city": ex("patras"), "country": ex("greece")},    // duplicate: multiset must keep both
		{"city": ex("unmoored")},                           // ?country unbound: UNDEF row, joins every country
	}

	// Expected: remote pattern evaluated in full, nested-loop joined.
	remoteAll, err := sparql.ExecCtx(context.Background(), remote, "SELECT * WHERE { ?country <http://example.org/name> ?name }", sparql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []sparql.Binding
	for _, b := range bindings {
		for _, r := range remoteAll.Rows {
			if m, ok := mergeBindings(b, r, ""); ok {
				want = append(want, m)
			}
		}
	}

	for _, batch := range []int{1, 2, 3, 64} {
		got, err := bindJoin(context.Background(), localFetch(remote), pattern, bindings, batch, 2)
		if err != nil {
			t.Fatalf("bindJoin(batch=%d): %v", batch, err)
		}
		if canon(got) != canon(want) {
			t.Errorf("bindJoin(batch=%d) diverged from direct join\n got:\n%s\nwant:\n%s", batch, canon(got), canon(want))
		}
	}
}

// TestBindJoinOptionalPatternKeepsSpecSemantics pins the injection-safety
// rule: a variable the remote pattern binds only inside OPTIONAL must not
// be injected, or the VALUES row itself survives the OPTIONAL unextended
// and manufactures solutions spec SERVICE semantics does not produce.
func TestBindJoinOptionalPatternKeepsSpecSemantics(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	pattern := parsePattern(t, `{ OPTIONAL { ?country <http://example.org/name> ?name } }`)
	ex := func(s string) rdf.IRI { return rdf.IRI("http://example.org/" + s) }
	bindings := []sparql.Binding{
		{"country": ex("greece")},
		{"country": ex("nowhere")}, // must yield NO solution, not an unextended one
	}

	// Spec semantics: eval the pattern remotely in isolation, join locally.
	remoteAll, err := sparql.ExecCtx(context.Background(), remote, "SELECT * WHERE { OPTIONAL { ?country <http://example.org/name> ?name } }", sparql.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []sparql.Binding
	for _, b := range bindings {
		for _, r := range remoteAll.Rows {
			if m, ok := mergeBindings(b, r, ""); ok {
				want = append(want, m)
			}
		}
	}

	got, err := bindJoin(context.Background(), localFetch(remote), pattern, bindings, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if canon(got) != canon(want) {
		t.Errorf("OPTIONAL-only pattern diverged from spec semantics\n got:\n%s\nwant:\n%s", canon(got), canon(want))
	}
	for _, r := range got {
		if r["country"] == ex("nowhere") {
			t.Errorf("spurious solution for unmatched binding: %v", r)
		}
	}
}

func TestCertainVarsGateInjection(t *testing.T) {
	// ?name is certain (top-level pattern) but ?cont is OPTIONAL-only:
	// only ?country and ?name may be injected.
	pattern := parsePattern(t, `{ ?country <http://example.org/name> ?name .
		OPTIONAL { ?country <http://example.org/continent> ?cont } }`)
	bindings := []sparql.Binding{{
		"country": rdf.IRI("http://example.org/greece"),
		"cont":    rdf.IRI("http://example.org/europe"),
	}}
	shared := sharedVars(pattern, bindings)
	if len(shared) != 1 || shared[0] != "country" {
		t.Errorf("sharedVars = %v, want [country]", shared)
	}
}

func TestBindJoinNoSharedVars(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	pattern := parsePattern(t, `{ ?c <http://example.org/continent> <http://example.org/asia> }`)
	bindings := []sparql.Binding{
		{"x": rdf.NewInteger(1)},
		{"x": rdf.NewInteger(2)},
	}
	got, err := bindJoin(context.Background(), localFetch(remote), pattern, bindings, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	// One asian country × two local bindings = 2 rows, each with ?x and ?c.
	if len(got) != 2 {
		t.Fatalf("rows = %d, want 2 (cross join)", len(got))
	}
	for _, r := range got {
		if r["c"] != rdf.IRI("http://example.org/japan") {
			t.Errorf("row %v missing ?c", r)
		}
	}
}

func TestBindJoinEmptyInput(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	pattern := parsePattern(t, `{ ?s ?p ?o }`)
	calls := 0
	fetch := func(_ context.Context, _ string) ([]sparql.Binding, error) {
		calls++
		return nil, nil
	}
	got, err := bindJoin(context.Background(), fetch, pattern, nil, 64, 2)
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
	if calls != 0 {
		t.Errorf("empty input dispatched %d requests", calls)
	}
	_ = remote
}

// TestServiceQueryEqualsMergedStore is the package-level statement of the
// federation contract: a SERVICE query across two live endpoints answers
// exactly like the same join over one store holding the union of both
// datasets.
func TestServiceQueryEqualsMergedStore(t *testing.T) {
	local := mustStore(t, citiesTTL)
	remote := mustStore(t, countriesTTL)
	peer := sparqlEndpoint(t, remote, nil)

	mesh := NewMesh(Options{})
	mesh.AddPeer(peer.URL)

	federated := fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?city ?name WHERE {
			?city ex:locatedIn ?country .
			SERVICE <%s> { ?country ex:name ?name }
		}`, peer.URL)
	got, err := sparql.ExecCtx(context.Background(), local, federated, sparql.Options{Service: mesh})
	if err != nil {
		t.Fatalf("federated query: %v", err)
	}

	merged := mustStore(t, citiesTTL+countriesTTL)
	want, err := sparql.ExecCtx(context.Background(), merged, `PREFIX ex: <http://example.org/>
		SELECT ?city ?name WHERE {
			?city ex:locatedIn ?country .
			?country ex:name ?name
		}`, sparql.Options{})
	if err != nil {
		t.Fatalf("merged query: %v", err)
	}
	if len(got.Rows) == 0 {
		t.Fatal("federated query returned nothing")
	}
	if canon(got.Rows) != canon(want.Rows) {
		t.Errorf("federated != merged\n got:\n%s\nwant:\n%s", canon(got.Rows), canon(want.Rows))
	}
}

func TestMeshResultCacheDeduplicatesRequests(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	var hits atomic.Int64
	peer := sparqlEndpoint(t, remote, &hits)

	mesh := NewMesh(Options{CacheTTL: time.Minute})
	local := mustStore(t, citiesTTL)
	q := fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?city ?name WHERE {
			?city ex:locatedIn ?country .
			SERVICE <%s> { ?country ex:name ?name }
		}`, peer.URL)
	var first string
	for i := 0; i < 3; i++ {
		res, err := sparql.ExecCtx(context.Background(), local, q, sparql.Options{Service: mesh})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// Cache-served runs must answer identically to the cold run —
		// in particular the bind join must not mutate the cached rows.
		if i == 0 {
			first = canon(res.Rows)
			if len(res.Rows) == 0 {
				t.Fatal("cold run returned no rows")
			}
		} else if canon(res.Rows) != first {
			t.Fatalf("run %d diverged from cold run\n got:\n%s\nwant:\n%s", i, canon(res.Rows), first)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("remote endpoint saw %d requests, want 1 (TTL cache)", n)
	}
	if cs, ok := mesh.CacheStats(); !ok || cs.Hits == 0 {
		t.Errorf("cache stats = %+v ok=%v", cs, ok)
	}
}

// TestBindJoinBlankNodeProjectsToUndef pins the grammar workaround: a local
// binding whose shared var holds a blank node must not leak the bnode into
// the generated VALUES block (illegal SPARQL); it travels as UNDEF and the
// merge-time compatibility check filters the superset.
func TestBindJoinBlankNodeProjectsToUndef(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	pattern := parsePattern(t, `{ ?country <http://example.org/name> ?name }`)
	bindings := []sparql.Binding{
		{"country": rdf.BlankNode("b1")}, // cannot match any remote IRI
		{"country": rdf.IRI("http://example.org/greece")},
	}
	var queries []string
	fetch := func(ctx context.Context, q string) ([]sparql.Binding, error) {
		queries = append(queries, q)
		return localFetch(remote)(ctx, q)
	}
	got, err := bindJoin(context.Background(), fetch, pattern, bindings, 64, 1)
	if err != nil {
		t.Fatalf("bindJoin: %v", err)
	}
	for _, q := range queries {
		if strings.Contains(q, "_:") {
			t.Errorf("generated subquery leaks a blank node into VALUES: %s", q)
		}
	}
	// Only the Greece binding joins; the bnode one finds no compatible row.
	if len(got) != 1 || got[0]["name"] != rdf.NewLangLiteral("Greece", "en") {
		t.Errorf("rows = %v, want exactly the greece join", got)
	}
}

func TestMeshCircuitBreaksDeadEndpoint(t *testing.T) {
	var hits atomic.Int64
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	mesh := NewMesh(Options{Retries: -1, FailureThreshold: 3, Cooldown: time.Hour, CacheCapacity: -1})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := mesh.Fetch(ctx, dead.URL, "SELECT * WHERE { ?s ?p ?o }"); err == nil {
			t.Fatalf("fetch %d unexpectedly succeeded", i)
		}
	}
	if n := hits.Load(); n != 3 {
		t.Errorf("dead endpoint saw %d requests, want 3 (circuit opens at threshold)", n)
	}
	st := mesh.Status()
	if len(st) != 1 || st[0].State != StateOpen {
		t.Errorf("status = %+v, want one open endpoint", st)
	}
}

// TestMeshProbeAndCapabilities: one Probe health-checks the peer and records
// its latency.
func TestMeshProbeAndCapabilities(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	peer := sparqlEndpoint(t, remote, nil)
	mesh := NewMesh(Options{})
	mesh.AddPeer(peer.URL)

	ctx := context.Background()
	mesh.Probe(ctx)
	st := mesh.Status()
	if len(st) != 1 || st[0].State != StateClosed || st[0].Requests != 1 {
		t.Fatalf("status after probe = %+v", st)
	}
	if st[0].LatencyMs <= 0 {
		t.Errorf("latency EWMA not recorded: %+v", st[0])
	}

}

func TestMeshRestrictToPeers(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	peer := sparqlEndpoint(t, remote, nil)
	mesh := NewMesh(Options{RestrictToPeers: true})

	local := mustStore(t, citiesTTL)
	q := fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?name WHERE {
			?city ex:locatedIn ?country .
			SERVICE <%s> { ?country ex:name ?name }
		}`, peer.URL)

	// Unregistered endpoint: refused without any network dispatch.
	if _, err := sparql.ExecCtx(context.Background(), local, q, sparql.Options{Service: mesh}); err == nil {
		t.Fatal("restricted mesh dispatched to an unregistered endpoint")
	}
	// After registration the same query works.
	mesh.AddPeer(peer.URL)
	res, err := sparql.ExecCtx(context.Background(), local, q, sparql.Options{Service: mesh})
	if err != nil {
		t.Fatalf("registered peer refused: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows from registered peer")
	}
}

func TestMeshMaintainProbesAndRefreshes(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	peer := sparqlEndpoint(t, remote, nil)
	mesh := NewMesh(Options{})
	mesh.AddPeer(peer.URL)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { mesh.Maintain(ctx, time.Hour); close(done) }()

	// The first health probe runs immediately, before the first tick.
	deadline := time.After(5 * time.Second)
	for {
		if st := mesh.Status(); len(st) == 1 && st[0].Requests > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("Maintain never probed the peer")
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := mesh.Status()
	if len(st) != 1 || st[0].State != StateClosed || st[0].Requests != 1 {
		t.Errorf("status after the first probe = %+v", st)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Maintain did not stop on cancellation")
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	remote := mustStore(t, countriesTTL)
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		r.ParseForm()
		res, err := sparql.ExecCtx(context.Background(), remote, r.Form.Get("query"), sparql.Options{})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, _ := res.JSON()
		w.Header().Set("Content-Type", sparql.JSONContentType)
		w.Write(body)
	}))
	t.Cleanup(flaky.Close)

	c := NewClient(flaky.URL, ClientOptions{Retries: 2})
	res, err := c.Query(context.Background(), "ASK { }")
	if err != nil {
		t.Fatalf("Query after retries: %v", err)
	}
	if !res.Ask {
		t.Error("ASK {} = false")
	}
	if hits.Load() != 3 {
		t.Errorf("endpoint saw %d requests, want 3 (2 failures + success)", hits.Load())
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "bad query", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, ClientOptions{Retries: 3})
	if _, err := c.Query(context.Background(), "nonsense"); err == nil {
		t.Fatal("expected error")
	}
	if hits.Load() != 1 {
		t.Errorf("endpoint saw %d requests, want 1 (400 is not transient)", hits.Load())
	}
}
