package lodviz

import (
	"context"
	"reflect"
	"testing"
)

// TestQueryStreamMatchesQuery: the façade stream delivers exactly the rows
// Query returns, in order, with the header available to every callback.
func TestQueryStreamMatchesQuery(t *testing.T) {
	ds := MiniLOD()
	for _, q := range []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5`,
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s LIMIT 3`,
		`SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 4`,
	} {
		ref, err := ds.QueryCtx(context.Background(), q, QueryOptions{})
		if err != nil {
			t.Fatalf("Query(%q): %v", q, err)
		}
		var rows []Binding
		var vars []string
		res, err := ds.QueryStream(context.Background(), q, QueryOptions{}, func(v []string, row Binding) bool {
			vars = v
			rows = append(rows, row)
			return true
		})
		if err != nil {
			t.Fatalf("QueryStream(%q): %v", q, err)
		}
		if !reflect.DeepEqual(vars, ref.Vars) {
			t.Errorf("%s: vars = %v, want %v", q, vars, ref.Vars)
		}
		if res.Rows != len(ref.Rows) || len(rows) != len(ref.Rows) {
			t.Fatalf("%s: streamed %d rows (summary %d), want %d", q, len(rows), res.Rows, len(ref.Rows))
		}
		for i := range rows {
			if !reflect.DeepEqual(rows[i], ref.Rows[i]) {
				t.Errorf("%s: row %d = %v, want %v", q, i, rows[i], ref.Rows[i])
			}
		}
	}
}

// TestQueryStreamIncrementalAndStop: plain LIMIT shapes report incremental
// delivery, and the consumer can stop the stream early without error.
func TestQueryStreamIncrementalAndStop(t *testing.T) {
	ds := MiniLOD()
	n := 0
	res, err := ds.QueryStream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o }`, QueryOptions{}, func(_ []string, _ Binding) bool {
		n++
		return n < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Error("plain scan should report Incremental")
	}
	if n != 2 || res.Rows != 2 {
		t.Errorf("delivered %d rows (summary %d), want 2", n, res.Rows)
	}

	ordered, err := ds.QueryStream(context.Background(), `SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 2`, QueryOptions{}, func(_ []string, _ Binding) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if ordered.Incremental {
		t.Error("ORDER BY shape must not report Incremental")
	}
	if ordered.Rows != 2 {
		t.Errorf("ordered stream delivered %d rows, want 2", ordered.Rows)
	}
}

// TestQueryStreamAsk: ASK answers arrive in the summary with no row
// callbacks.
func TestQueryStreamAsk(t *testing.T) {
	ds := MiniLOD()
	called := false
	res, err := ds.QueryStream(context.Background(), `ASK { ?s ?p ?o }`, QueryOptions{}, func(_ []string, _ Binding) bool {
		called = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("ASK must not invoke the row callback")
	}
	if !res.Ask {
		t.Error("Ask = false, want true")
	}
	if res.Vars != nil {
		t.Errorf("ASK vars = %v, want nil", res.Vars)
	}
}

// TestQueryStreamParseError: syntax errors classify as ErrQueryParse.
func TestQueryStreamParseError(t *testing.T) {
	ds := MiniLOD()
	_, err := ds.QueryStream(context.Background(), `SELECT ?s WHERE {`, QueryOptions{}, func(_ []string, _ Binding) bool { return true })
	if err == nil {
		t.Fatal("want parse error")
	}
}
