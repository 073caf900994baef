package sparql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
)

// TestColumnRowsMatchOracle: the paged source's final rows, which go from
// dictionary IDs to result columns by a slot permutation, equal the
// oracle's Binding rows on the columns the permutation fills from
// elsewhere than a run slot — a VALUES or BIND prefix (UNDEF included), a
// variable nothing binds, a name projected twice.
func TestColumnRowsMatchOracle(t *testing.T) {
	const pre = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> `
	states := storeStates(t, testStore(t).Triples())
	for i, q := range []string{
		`SELECT ?p ?n ?tag WHERE { VALUES (?n ?tag) { ("Alice" "a") (UNDEF "u") ("Nobody" "x") } ?p foaf:name ?n }`,
		`SELECT ?tag ?p WHERE { VALUES ?tag { "a" "b" } ?p foaf:name ?n } LIMIT 5`,
		`SELECT * WHERE { BIND("k" AS ?k) ?p foaf:name ?n }`,
		`SELECT ?n ?nowhere WHERE { ?p foaf:name ?n } LIMIT 2`,
		`SELECT ?n ?p ?n WHERE { ?p foaf:name ?n }`,
		`SELECT ?n ?a WHERE { ?p foaf:name ?n ; foaf:age ?a } OFFSET 1`,
	} {
		for _, state := range states {
			t.Run(fmt.Sprint(i, "/", state.name), func(t *testing.T) { checkAgainstOracle(t, state.st, pre+q) })
		}
	}
}

// TestRepeatedNameReadsLastBinder: a name projected twice holds, in every
// column, the value of the last item that bound it — what the one map
// entry per name of a Binding row holds — in Results, in RunRows and in
// the encoded row.
func TestRepeatedNameReadsLastBinder(t *testing.T) {
	st := testStore(t)
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n (STR("x") AS ?n) (?nowhere AS ?n) WHERE { ?p foaf:name ?n } LIMIT 1`
	x := rdf.NewLiteral("x")
	res := execOpts(t, st, q, Options{Parallelism: 1})
	if len(res.Rows) != 1 || res.Rows[0]["n"] != x {
		t.Fatalf("rows %v, want one with ?n = %v", res.Rows, x)
	}
	stm, err := PrepareStream(context.Background(), st, q, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]rdf.Term
	if err := stm.RunRows(func(row []rdf.Term) bool { rows = append(rows, row); return true }); err != nil {
		t.Fatal(err)
	}
	if want := [][]rdf.Term{{x, x, x}}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("RunRows %v, want %v", rows, want)
	}
	if got, want := string(AppendColumns(nil, NewColumnOrder(stm.Vars()), rows[0])), refEncode(t, refBinding(res.Rows[0])); got != want {
		t.Errorf("AppendColumns %s, want %s", got, want)
	}
}

// TestAppendColumnsOrder: AppendColumns writes a row laid out in projection
// order as encoding/json writes the same row as a map — sorted, unbound
// columns left out, a repeated name once.
func TestAppendColumnsOrder(t *testing.T) {
	vars := []string{"z", "a", "m", "a"}
	row := []rdf.Term{rdf.IRI("http://z"), rdf.NewLiteral("a"), nil, rdf.NewLiteral("a")}
	b := Binding{"z": row[0], "a": row[1]}
	got := string(AppendColumns(nil, NewColumnOrder(vars), row))
	if want := refEncode(t, refBinding(b)); got != want {
		t.Errorf("AppendColumns %s, want %s", got, want)
	}
	if want := `{"a":{"type":"literal","value":"a"},"z":{"type":"uri","value":"http://z"}}`; got != want {
		t.Errorf("AppendColumns %s, want %s", got, want)
	}
}

// TestBindingsCounter: lodviz_engine_bindings_total stays still while the
// paged source hands final rows out as columns, and counts the solutions
// built as Bindings where a stage needs term values by name.
func TestBindingsCounter(t *testing.T) {
	st := testStore(t)
	const pre = `PREFIX foaf: <http://xmlns.com/foaf/0.1/> `
	for _, tc := range []struct {
		q     string
		built uint64
	}{
		{`SELECT ?p ?n WHERE { ?p foaf:name ?n } LIMIT 10`, 0},                           // paged, final rows
		{`SELECT ?n WHERE { VALUES ?n { "Alice" } ?p foaf:name ?n } LIMIT 10`, 0},        // seeded run
		{`SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 10`, 3},                  // ORDER BY keys
		{`SELECT (STR(?n) AS ?s) WHERE { ?p foaf:name ?n } LIMIT 10`, 3},                 // projection expression
		{`SELECT ?n WHERE { ?p foaf:name ?n ; foaf:age ?a FILTER(?a > 0) } LIMIT 10`, 3}, // FILTER after the run
		{`SELECT ?p ?n WHERE { ?p foaf:name ?n }`, 0},                                    // paged without LIMIT
		{`SELECT DISTINCT ?p ?n WHERE { ?p foaf:name ?n }`, 3},                           // materialized
	} {
		met := NewMetrics(obs.NewRegistry())
		res := execOpts(t, st, pre+tc.q, Options{Parallelism: 1, Metrics: met})
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows", tc.q)
		}
		if got := met.BindingsBuilt.Value(); got != tc.built {
			t.Errorf("%s: %d Bindings built, want %d", tc.q, got, tc.built)
		}
	}
}
