package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/ledger"
)

// postUpdate sends a SPARQL update as an urlencoded form and decodes the
// response into into (when non-nil), returning the response.
func postUpdate(t *testing.T, tsURL, update string, into any) *http.Response {
	t.Helper()
	resp, err := http.PostForm(tsURL+"/sparql", url.Values{"update": {update}})
	if err != nil {
		t.Fatalf("POST update: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("decoding update response: %v\nbody: %s", err, body)
		}
	}
	return resp
}

func TestSPARQLUpdateRoundTrip(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	gen := st.Generation()

	var ur updateResponse
	resp := postUpdate(t, ts.URL, `INSERT DATA {
		<http://ex/crete> <`+exNS+`country> <`+exNS+`greece> .
		<http://ex/crete> <`+exNS+`population> 623000 .
	}`, &ur)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ur.Inserted != 2 || ur.Deleted != 0 || ur.Ops != 1 {
		t.Fatalf("response = %+v, want 2 inserted", ur)
	}
	if ur.Generation == gen {
		t.Fatal("effective insert did not advance the generation")
	}

	// The inserted data is queryable through the same endpoint.
	q := `SELECT ?p WHERE { <http://ex/crete> <` + exNS + `population> ?p }`
	var doc sparqlDoc
	if resp := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc); resp.StatusCode != 200 {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if len(doc.Results.Bindings) != 1 || doc.Results.Bindings[0]["p"].Value != "623000" {
		t.Fatalf("query after insert: %+v", doc.Results)
	}

	// DELETE WHERE removes it again.
	ur = updateResponse{}
	postUpdate(t, ts.URL, `DELETE WHERE { <http://ex/crete> ?p ?o }`, &ur)
	if ur.Deleted != 2 {
		t.Fatalf("deleted %d, want 2", ur.Deleted)
	}
	doc = sparqlDoc{}
	getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
	if len(doc.Results.Bindings) != 0 {
		t.Fatalf("rows after delete: %+v", doc.Results)
	}
}

func TestSPARQLUpdateRawBody(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	before := st.Len()
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-update",
		strings.NewReader(`INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if st.Len() != before+1 {
		t.Fatalf("store grew by %d, want 1", st.Len()-before)
	}
}

func TestSPARQLUpdateInvalidatesCache(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := ts.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?o WHERE { <http://ex/c1> <http://ex/p> ?o }`)

	var doc sparqlDoc
	getJSON(t, q, &doc)
	if resp := getJSON(t, q, &doc); resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second identical query X-Cache = %q, want HIT", resp.Header.Get("X-Cache"))
	}
	if len(doc.Results.Bindings) != 0 {
		t.Fatalf("rows before insert: %+v", doc.Results)
	}

	postUpdate(t, ts.URL, `INSERT DATA { <http://ex/c1> <http://ex/p> "now" }`, nil)

	resp := getJSON(t, q, &doc)
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("post-update X-Cache = %q, want MISS (the insert matches the query's pattern)", resp.Header.Get("X-Cache"))
	}
	if len(doc.Results.Bindings) != 1 || doc.Results.Bindings[0]["o"].Value != "now" {
		t.Fatalf("rows after insert: %+v", doc.Results)
	}
}

func TestSPARQLUpdateRejectsCrossOrigin(t *testing.T) {
	_, ts, st := newTestServer(t, Config{})
	before := st.Generation()
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/sparql",
		strings.NewReader("update="+url.QueryEscape(`INSERT DATA { <http://ex/evil> <http://ex/p> 1 }`)))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Origin", "https://evil.example")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, want 403", resp.StatusCode)
	}
	if st.Generation() != before {
		t.Fatal("cross-origin update mutated the store")
	}
	// Queries with an Origin header still work — reads are CORS-open.
	q := `ASK { ?s ?p ?o }`
	reqQ, _ := http.NewRequest(http.MethodGet, ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
	reqQ.Header.Set("Origin", "https://anywhere.example")
	respQ, err := http.DefaultClient.Do(reqQ)
	if err != nil {
		t.Fatal(err)
	}
	respQ.Body.Close()
	if respQ.StatusCode != http.StatusOK {
		t.Fatalf("cross-origin query status = %d, want 200", respQ.StatusCode)
	}
}

func TestSPARQLUpdateProtocolErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// GET carries no update binding: ?update= is just a missing query.
	resp, err := http.Get(ts.URL + "/sparql?update=" + url.QueryEscape(`INSERT DATA { <http://ex/a> <http://ex/p> 1 }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET update status = %d, want 400", resp.StatusCode)
	}

	// Both query and update in one form is ambiguous.
	resp, err = http.PostForm(ts.URL+"/sparql", url.Values{
		"query":  {`ASK { ?s ?p ?o }`},
		"update": {`INSERT DATA { <http://ex/a> <http://ex/p> 1 }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("query+update status = %d, want 400", resp.StatusCode)
	}

	// A parse error in the update text is the client's fault.
	resp = postUpdate(t, ts.URL, `INSERT DATA { ?v <http://ex/p> 1 }`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad update status = %d, want 400", resp.StatusCode)
	}

	// Updates do not stream.
	resp, err = http.PostForm(ts.URL+"/sparql/stream", url.Values{"update": {`INSERT DATA { <http://ex/a> <http://ex/p> 1 }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("streamed update status = %d, want 400", resp.StatusCode)
	}
}

func TestLedgerEndpoints(t *testing.T) {
	led := ledger.New()
	led.Append(1, []byte("batch-1"))
	led.Append(2, []byte("batch-2"))
	_, ts, _ := newTestServer(t, Config{Ledger: led})

	var info ledger.Info
	if resp := getJSON(t, ts.URL+"/ledger/root", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ledger/root status = %d", resp.StatusCode)
	}
	if info.Count != 2 || info.FirstSeq != 1 || info.LastSeq != 2 || len(info.Root) != 64 {
		t.Fatalf("/ledger/root = %+v", info)
	}

	var proof ledger.Proof
	if resp := getJSON(t, ts.URL+"/ledger/proof?seq=2", &proof); resp.StatusCode != http.StatusOK {
		t.Fatalf("/ledger/proof status = %d", resp.StatusCode)
	}
	if proof.Root != info.Root {
		t.Fatalf("proof root %s != ledger root %s", proof.Root, info.Root)
	}
	if !ledger.VerifyProof(proof) {
		t.Fatalf("served proof does not verify: %+v", proof)
	}
	if proof.Leaf != ledger.LeafHash([]byte("batch-2")) {
		t.Fatal("proof leaf does not match the record payload hash")
	}

	for path, want := range map[string]int{
		"/ledger/proof?seq=99":  http.StatusNotFound,
		"/ledger/proof?seq=abc": http.StatusBadRequest,
		"/ledger/proof":         http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestLedgerEndpointsWithoutLedger(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, path := range []string{"/ledger/root", "/ledger/proof?seq=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s status = %d, want 404 when no ledger is configured", path, resp.StatusCode)
		}
	}
}
