package sparql

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func errTestStore(t *testing.T, n int) *store.Store {
	t.Helper()
	var triples []rdf.Triple
	for i := 0; i < n; i++ {
		triples = append(triples, rdf.Triple{
			S: rdf.IRI("http://e/s" + strings.Repeat("x", i%7)),
			P: rdf.IRI("http://e/p"),
			O: rdf.NewInteger(int64(i)),
		})
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestParseErrorClassified(t *testing.T) {
	_, err := Parse("SELECT WHERE {{{ nope")
	if err == nil {
		t.Fatal("want parse error")
	}
	if !errors.Is(err, ErrParse) {
		t.Fatalf("error %v does not match ErrParse", err)
	}
	if errors.Is(err, ErrEval) {
		t.Fatalf("parse error %v also matches ErrEval", err)
	}
	if !strings.Contains(err.Error(), "parse") {
		t.Fatalf("message lost: %q", err.Error())
	}
}

// TestTermErrorsClassifiedWithOffset: an error the shared term scanners
// report inside a query is a parse error like any other, and says where.
func TestTermErrorsClassifiedWithOffset(t *testing.T) {
	for q, offset := range map[string]string{
		`SELECT ?s WHERE { ?s ?p "bad \q" }`:           "offset 29",
		`SELECT ?s WHERE { ?s ?p "x"^^nope:dt }`:       "offset 29",
		`INSERT DATA { <http://e/s> <http://e/p> _: }`: "offset 42",
	} {
		_, err := Parse(q)
		if strings.HasPrefix(q, "INSERT") {
			_, err = ParseUpdate(q)
		}
		if !errors.Is(err, ErrParse) || !strings.Contains(err.Error(), offset) {
			t.Errorf("%s: error %v, want an ErrParse naming %s", q, err, offset)
		}
	}
}

func TestExecParseErrorClassified(t *testing.T) {
	st := errTestStore(t, 4)
	_, err := ExecCtx(context.Background(), st, "not sparql at all", Options{})
	if !errors.Is(err, ErrParse) {
		t.Fatalf("Exec error %v does not match ErrParse", err)
	}
}

func TestEvalErrorClassified(t *testing.T) {
	st := errTestStore(t, 4)
	// A bare projected variable that is not a GROUP BY key is an
	// evaluation-time failure on a syntactically valid query.
	_, err := ExecCtx(context.Background(), st, "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p", Options{})
	if err == nil {
		t.Skip("engine tolerates non-key projection; no eval error available here")
	}
	if !errors.Is(err, ErrEval) {
		t.Fatalf("error %v does not match ErrEval", err)
	}
	if errors.Is(err, ErrParse) {
		t.Fatalf("eval error %v also matches ErrParse", err)
	}
}

func TestExecCtxCancelled(t *testing.T) {
	st := errTestStore(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecCtx(ctx, st, "SELECT ?s WHERE { ?s ?p ?o }", Options{})
	if err == nil {
		t.Fatal("want error from cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
	if !errors.Is(err, ErrEval) {
		t.Fatalf("error %v does not match ErrEval", err)
	}
}

func TestExecCtxDeadline(t *testing.T) {
	st := errTestStore(t, 64)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := ExecCtx(ctx, st, "SELECT ?s WHERE { ?s ?p ?o . ?s ?q ?v }", Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not match context.DeadlineExceeded", err)
	}
}

func TestExecCtxBackgroundSucceeds(t *testing.T) {
	st := errTestStore(t, 16)
	res, err := ExecCtx(context.Background(), st, "SELECT ?s WHERE { ?s ?p ?o }", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(res.Rows))
	}
}

// TestExecCtxMidScanCancel cancels while a large single-pattern scan is in
// flight; the per-match poll inside ForEach must stop it.
func TestExecCtxMidScanCancel(t *testing.T) {
	st := errTestStore(t, 20000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		// Cancel as soon as evaluation plausibly started.
		time.Sleep(50 * time.Microsecond)
		cancel()
		close(done)
	}()
	_, err := ExecCtx(ctx, st, "SELECT ?a ?b WHERE { ?a ?p ?x . ?b ?q ?x }", Options{Parallelism: 1})
	<-done
	// Either the query won the race (nil) or it was cancelled; what must
	// never happen is a non-context error.
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error class: %v", err)
	}
}
