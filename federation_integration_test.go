package lodviz

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
)

// The multi-node federation contract, end to end: two live lodvizd
// instances (full server stacks over httptest), one holding cities and one
// holding countries, must answer a SERVICE query exactly like a single
// node holding the union of both datasets.

const fedCitiesTTL = `
@prefix ex: <http://example.org/> .
ex:athens ex:locatedIn ex:greece ; ex:population 664046 .
ex:patras ex:locatedIn ex:greece ; ex:population 213984 .
ex:lyon ex:locatedIn ex:france ; ex:population 513275 .
ex:bordeaux ex:locatedIn ex:france ; ex:population 252040 .
ex:atlantis ex:locatedIn ex:nowhere .
`

const fedCountriesTTL = `
@prefix ex: <http://example.org/> .
ex:greece ex:name "Greece"@en .
ex:france ex:name "France"@en .
ex:japan ex:name "Japan"@en .
`

func fedDataset(t *testing.T, ttl string) *Dataset {
	t.Helper()
	ds, err := LoadTurtle(ttl)
	if err != nil {
		t.Fatalf("LoadTurtle: %v", err)
	}
	return ds
}

// fedNode serves ds as a full lodvizd-equivalent node over httptest and
// returns its /sparql endpoint URL.
func fedNode(t *testing.T, ds *Dataset) string {
	t.Helper()
	srv := httptest.NewServer(ds.Handler(quietConfig()))
	t.Cleanup(srv.Close)
	return srv.URL + "/sparql"
}

func canonResults(res *Results) string {
	lines := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
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

func TestFederatedQueryEqualsMergedStore(t *testing.T) {
	cities := fedDataset(t, fedCitiesTTL)
	countries := fedDataset(t, fedCountriesTTL)
	peerURL := fedNode(t, countries)

	cities.Federate(peerURL)
	federated := fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?city ?name ?pop WHERE {
			?city ex:locatedIn ?country ; ex:population ?pop .
			SERVICE <%s> { ?country ex:name ?name }
		}`, peerURL)
	got, err := cities.QueryCtx(context.Background(), federated, QueryOptions{})
	if err != nil {
		t.Fatalf("federated query: %v", err)
	}
	if len(got.Rows) == 0 {
		t.Fatal("federated query returned no rows")
	}

	merged := fedDataset(t, fedCitiesTTL+fedCountriesTTL)
	want, err := merged.QueryCtx(context.Background(), `PREFIX ex: <http://example.org/>
		SELECT ?city ?name ?pop WHERE {
			?city ex:locatedIn ?country ; ex:population ?pop .
			?country ex:name ?name
		}`, QueryOptions{})
	if err != nil {
		t.Fatalf("merged query: %v", err)
	}
	if canonResults(got) != canonResults(want) {
		t.Errorf("federated solution multiset differs from merged store\n got:\n%s\nwant:\n%s",
			canonResults(got), canonResults(want))
	}

	// The peer shows up healthy on the mesh after serving the bind join.
	status := cities.FederationStatus()
	if len(status) != 1 || status[0].State != "closed" || status[0].Requests == 0 {
		t.Errorf("federation status = %+v", status)
	}
}

// TestFederatedQueryOverHTTP drives the same two-node join through node A's
// own /sparql endpoint — client-visible federation, not just façade-level.
func TestFederatedQueryOverHTTP(t *testing.T) {
	cities := fedDataset(t, fedCitiesTTL)
	countries := fedDataset(t, fedCountriesTTL)
	peerURL := fedNode(t, countries)
	nodeA := fedNode(t, cities)

	q := fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?city ?name WHERE {
			?city ex:locatedIn ?country .
			SERVICE <%s> { ?country ex:name ?name }
		}`, peerURL)
	resp, err := http.Get(nodeA + "?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatalf("GET /sparql: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "BYPASS" {
		t.Errorf("X-Cache = %q, want BYPASS (federated responses are not generation-cacheable)", got)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(doc.Results.Bindings) != 4 {
		t.Fatalf("bindings = %d, want 4 (cities with named countries)", len(doc.Results.Bindings))
	}
}

func TestServiceSilentDegradesToLocalPartialResult(t *testing.T) {
	cities := fedDataset(t, fedCitiesTTL)
	// A dead endpoint: nothing listens here (reserved TEST-NET-1 address
	// would hang, so use a just-closed local server for a fast refusal).
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	q := fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?city ?name WHERE {
			?city ex:locatedIn ?country .
			SERVICE SILENT <%s> { ?country ex:name ?name }
		}`, deadURL)
	got, err := cities.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatalf("SERVICE SILENT against dead endpoint errored: %v", err)
	}
	// All five cities come back — the local partial result — with ?name
	// unbound everywhere.
	if len(got.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (local partial result)", len(got.Rows))
	}
	for _, r := range got.Rows {
		if _, bound := r["name"]; bound {
			t.Errorf("row %v has ?name bound despite dead endpoint", r)
		}
	}

	// Without SILENT the same query must fail loudly.
	qLoud := strings.Replace(q, "SERVICE SILENT", "SERVICE", 1)
	if _, err := cities.QueryCtx(context.Background(), qLoud, QueryOptions{}); err == nil {
		t.Fatal("plain SERVICE against dead endpoint should error")
	}
}

func TestFederationStatusEndpoint(t *testing.T) {
	cities := fedDataset(t, fedCitiesTTL)
	countries := fedDataset(t, fedCountriesTTL)
	peerURL := fedNode(t, countries)
	cities.Federate(peerURL)
	nodeA := fedNode(t, cities)

	resp, err := http.Get(strings.TrimSuffix(nodeA, "/sparql") + "/federation")
	if err != nil {
		t.Fatalf("GET /federation: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Endpoints []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(doc.Endpoints) != 1 || doc.Endpoints[0].URL != peerURL {
		t.Fatalf("endpoints = %+v, want the registered peer", doc.Endpoints)
	}
}

func TestDatasetSearchAndComplete(t *testing.T) {
	ds := MiniLOD()
	hits := ds.Search("athens", 5)
	if len(hits) == 0 {
		t.Fatal("Search(athens) found nothing in MiniLOD")
	}
	comps := ds.Complete("ath", 5)
	found := false
	for _, c := range comps {
		if c == "athens" {
			found = true
		}
	}
	if !found {
		t.Errorf("Complete(ath) = %v, want to include athens", comps)
	}
}
