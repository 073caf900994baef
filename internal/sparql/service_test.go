package sparql

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

func TestParseService(t *testing.T) {
	q, err := Parse(`SELECT ?s ?o WHERE {
		?s <http://example.org/p> ?x .
		SERVICE <http://remote.example/sparql> { ?x <http://example.org/q> ?o }
	}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var svc Service
	found := false
	for _, el := range q.Where.Elems {
		if s, ok := el.(Service); ok {
			svc, found = s, true
		}
	}
	if !found {
		t.Fatalf("no Service element in %#v", q.Where.Elems)
	}
	if svc.Endpoint != "http://remote.example/sparql" {
		t.Errorf("endpoint = %q", svc.Endpoint)
	}
	if svc.Silent {
		t.Error("Silent = true for plain SERVICE")
	}
	if len(svc.Inner.Elems) != 1 {
		t.Errorf("inner elems = %d, want 1", len(svc.Inner.Elems))
	}
}

func TestParseServiceSilent(t *testing.T) {
	q, err := Parse(`PREFIX ex: <http://example.org/>
		ASK { SERVICE SILENT ex:sparql { ?s ?p ?o } }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	svc, ok := q.Where.Elems[0].(Service)
	if !ok {
		t.Fatalf("elem 0 is %T, want Service", q.Where.Elems[0])
	}
	if !svc.Silent {
		t.Error("Silent = false for SERVICE SILENT")
	}
	if svc.Endpoint != "http://example.org/sparql" {
		t.Errorf("endpoint = %q (prefixed name should expand)", svc.Endpoint)
	}
}

func TestParseServiceErrors(t *testing.T) {
	for _, q := range []string{
		`SELECT * WHERE { SERVICE ?ep { ?s ?p ?o } }`, // variable endpoint unsupported
		`SELECT * WHERE { SERVICE }`,
		`SELECT * WHERE { SERVICE <http://x/> ?s ?p ?o }`, // missing braces
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		} else if !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q): error %v does not match ErrParse", q, err)
		}
	}
}

// TestFormatGroupRoundTrip checks that serializing a parsed WHERE group and
// re-parsing it yields a query answering identically.
func TestFormatGroupRoundTrip(t *testing.T) {
	st := testStore(t)
	queries := []string{
		`SELECT * WHERE { ?s <http://xmlns.com/foaf/0.1/name> ?n }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		 SELECT * WHERE { ?s foaf:knows ?o . ?o foaf:name ?n . FILTER (?n != "Carol") }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		 SELECT * WHERE { ?s foaf:age ?a . FILTER (?a > 26 && ?a < 40) }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		 SELECT * WHERE { ?s a foaf:Person . OPTIONAL { ?s foaf:knows ?k } }`,
		`PREFIX ex: <http://example.org/>
		 SELECT * WHERE { { ?s ex:label ?l } UNION { ?s ex:population ?l } }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		 SELECT * WHERE { ?s foaf:age ?a . BIND(?a + 1 AS ?next) }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		 SELECT * WHERE { VALUES ?n { "Alice" "Bob" } ?s foaf:name ?n }`,
		`PREFIX ex: <http://example.org/>
		 SELECT * WHERE { ?s ex:label ?l . FILTER (LANG(?l) = "en") }`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		 SELECT * WHERE { ?s foaf:name ?n . FILTER REGEX(?n, "^[AB]") }`,
	}
	for _, src := range queries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text := FormatGroup(q.Where)
		re, err := Parse("SELECT * WHERE " + text)
		if err != nil {
			t.Fatalf("re-Parse of %q (from %q): %v", text, src, err)
		}
		want := exec(t, st, src)
		got, err := EvalCtx(context.Background(), st, re, Options{})
		if err != nil {
			t.Fatalf("Eval of reparse %q: %v", text, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("round trip of %q: %d rows, want %d (text %q)", src, len(got.Rows), len(want.Rows), text)
		}
		if canonRows(got.Rows) != canonRows(want.Rows) {
			t.Errorf("round trip of %q changed results\n got %s\nwant %s", src, canonRows(got.Rows), canonRows(want.Rows))
		}
	}
}

func canonRows(rows []Binding) string {
	lines := make([]string, 0, len(rows))
	for _, r := range rows {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		// Insertion-sort the few keys; deterministic line per row.
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k + "=" + r[k].String() + " ")
		}
		lines = append(lines, sb.String())
	}
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	return strings.Join(lines, "\n")
}

func TestBindableVars(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?s <http://x/p> ?o .
		OPTIONAL { ?o <http://x/q> ?v }
		BIND(1 AS ?b)
		VALUES ?w { 1 }
		FILTER (?f > 0)
	}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := map[string]bool{}
	for _, v := range BindableVars(q.Where) {
		got[v] = true
	}
	for _, want := range []string{"s", "o", "v", "b", "w"} {
		if !got[want] {
			t.Errorf("BindableVars missing %q (got %v)", want, got)
		}
	}
	if got["f"] {
		t.Error("BindableVars includes FILTER-only var f")
	}
}

func TestCertainVars(t *testing.T) {
	q, err := Parse(`SELECT * WHERE {
		?s <http://x/p> ?o .
		OPTIONAL { ?s <http://x/q> ?opt }
		{ ?s <http://x/a> ?both } UNION { ?both <http://x/b> ?s . ?left <http://x/c> ?s }
		BIND(1 AS ?bound)
		VALUES (?v ?u) { (1 UNDEF) (2 3) }
	}`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got := map[string]bool{}
	for _, v := range CertainVars(q.Where) {
		got[v] = true
	}
	for _, want := range []string{"s", "o", "both", "v"} {
		if !got[want] {
			t.Errorf("CertainVars missing %q (got %v)", want, got)
		}
	}
	for _, not := range []string{"opt", "left", "bound", "u"} {
		if got[not] {
			t.Errorf("CertainVars wrongly includes %q (optional/one-branch/bind/undef)", not)
		}
	}
}

func TestHasService(t *testing.T) {
	with, err := Parse(`SELECT * WHERE { { OPTIONAL { SERVICE <http://x/> { ?s ?p ?o } } } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !HasService(with.Where) {
		t.Error("HasService missed a nested SERVICE")
	}
	without, err := Parse(`SELECT * WHERE { ?s <http://x/service> "service" }`)
	if err != nil {
		t.Fatal(err)
	}
	if HasService(without.Where) {
		t.Error("HasService false positive on service-mentioning terms")
	}
}

// stubService records calls and returns canned rows or an error.
type stubService struct {
	calls []*ServiceCall
	rows  []Binding
	err   error
}

func (s *stubService) EvalService(_ context.Context, call *ServiceCall) ([]Binding, error) {
	s.calls = append(s.calls, call)
	if s.err != nil {
		return nil, s.err
	}
	return s.rows, nil
}

func TestServiceEvaluatorDispatch(t *testing.T) {
	st := testStore(t)
	stub := &stubService{rows: []Binding{
		{"s": rdf.IRI("http://example.org/alice"), "mail": rdf.NewLiteral("alice@example.org")},
	}}
	res, err := ExecCtx(context.Background(), st, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		SELECT ?s ?mail WHERE {
			?s foaf:name "Alice" .
			SERVICE <http://remote/sparql> { ?s <http://example.org/mail> ?mail }
		}`, Options{Service: stub})
	if err != nil {
		t.Fatalf("ExecCtx: %v", err)
	}
	if len(stub.calls) != 1 {
		t.Fatalf("evaluator called %d times, want 1", len(stub.calls))
	}
	call := stub.calls[0]
	if call.Endpoint != "http://remote/sparql" {
		t.Errorf("endpoint = %q", call.Endpoint)
	}
	if len(call.Bindings) != 1 {
		t.Errorf("evaluator received %d bindings, want 1 (the ?s solution)", len(call.Bindings))
	}
	if len(res.Rows) != 1 || res.Rows[0]["mail"] != rdf.NewLiteral("alice@example.org") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestServiceWithoutEvaluatorFails(t *testing.T) {
	st := testStore(t)
	_, err := ExecCtx(context.Background(), st, `SELECT * WHERE { SERVICE <http://remote/sparql> { ?s ?p ?o } }`, Options{})
	if err == nil {
		t.Fatal("expected error for SERVICE without evaluator")
	}
	if !errors.Is(err, ErrEval) {
		t.Errorf("error %v does not match ErrEval", err)
	}
}

func TestServiceSilentDegrades(t *testing.T) {
	st := testStore(t)
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
		SELECT ?s WHERE {
			?s foaf:name "Alice" .
			SERVICE SILENT <http://remote/sparql> { ?s <http://example.org/mail> ?mail }
		}`

	// No evaluator at all: the local partial result comes back.
	res, err := ExecCtx(context.Background(), st, q, Options{})
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (local partial result)", len(res.Rows))
	}

	// A failing evaluator: same degradation.
	stub := &stubService{err: errors.New("endpoint unreachable")}
	res, err = ExecCtx(context.Background(), st, q, Options{Service: stub})
	if err != nil {
		t.Fatalf("ExecCtx with failing evaluator: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (degraded partial result)", len(res.Rows))
	}
}

func TestServiceSilentDoesNotMaskCancellation(t *testing.T) {
	st := testStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	stub := &stubService{err: context.Canceled}
	cancel()
	_, err := ExecCtx(ctx, st, `SELECT * WHERE {
		SERVICE SILENT <http://remote/sparql> { ?s ?p ?o }
	}`, Options{Service: stub})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not match context.Canceled", err)
	}
}
