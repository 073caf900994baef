package sparql

import (
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func TestQueryFootprint(t *testing.T) {
	st := store.New()
	if _, err := st.AddBatch([]rdf.Triple{
		rdf.T(rdf.IRI("http://x/a"), rdf.RDFType, rdf.IRI("http://x/C")),
		rdf.T(rdf.IRI("http://x/a"), rdf.IRI("http://x/p"), rdf.NewLiteral("v")),
		rdf.T(rdf.IRI("http://x/a"), rdf.IRI("http://x/q"), rdf.IRI("http://x/b")),
	}); err != nil {
		t.Fatal(err)
	}
	id := func(term rdf.Term) store.ID {
		id, ok := st.LookupTermID(term)
		if !ok {
			t.Fatalf("%v not in the dictionary", term)
		}
		return id
	}
	a, b, c := id(rdf.IRI("http://x/a")), id(rdf.IRI("http://x/b")), id(rdf.IRI("http://x/C"))
	typ, p, q, v := id(rdf.RDFType), id(rdf.IRI("http://x/p")), id(rdf.IRI("http://x/q")), id(rdf.NewLiteral("v"))
	m := func(s, p, o store.ID) store.IDTriple { return store.IDTriple{S: s, P: p, O: o} }

	for _, tc := range []struct {
		name, query string
		want        []store.IDTriple // nil: the whole store
	}{
		{"point lookup", `SELECT ?p ?o WHERE { <http://x/a> ?p ?o }`, []store.IDTriple{m(a, 0, 0)}},
		{"join, a keyword, literal", `SELECT ?s WHERE { ?s a <http://x/C> . ?s <http://x/p> "v" }`,
			[]store.IDTriple{m(0, typ, c), m(0, p, v)}},
		{"filter, order, limit read nothing", `SELECT ?s ?o WHERE { ?s <http://x/p> ?o . FILTER(?o > 3) } ORDER BY DESC(?o) LIMIT 5`,
			[]store.IDTriple{m(0, p, 0)}},
		{"group by", `SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a ?c } GROUP BY ?c`, []store.IDTriple{m(0, typ, 0)}},
		{"ask", `ASK { <http://x/a> <http://x/q> <http://x/b> }`, []store.IDTriple{m(a, q, b)}},
		{"optional", `SELECT ?s ?o WHERE { ?s a <http://x/C> . OPTIONAL { ?s <http://x/q> ?o } }`,
			[]store.IDTriple{m(0, typ, c), m(0, q, 0)}},
		{"union", `SELECT ?s WHERE { { ?s <http://x/p> ?o } UNION { ?s <http://x/q> ?o } UNION { ?s a ?o } }`,
			[]store.IDTriple{m(0, p, 0), m(0, q, 0), m(0, typ, 0)}},
		{"nested groups", `SELECT ?s WHERE { { { ?s <http://x/p> ?o } } OPTIONAL { { ?s <http://x/q> ?x } UNION { ?x <http://x/q> ?s } } }`,
			[]store.IDTriple{m(0, p, 0), m(0, q, 0), m(0, q, 0)}},
		{"values and bind", `SELECT ?s ?y WHERE { VALUES ?s { <http://x/a> <http://x/nowhere> } ?s <http://x/p> ?o . BIND(?o AS ?y) }`,
			[]store.IDTriple{m(0, p, 0)}},
		{"same variable twice", `SELECT ?s WHERE { ?s <http://x/q> ?s }`, []store.IDTriple{m(0, q, 0)}},
		{"all variables", `SELECT * WHERE { ?s ?p ?o } LIMIT 1`, []store.IDTriple{m(0, 0, 0)}},

		{"absent subject", `SELECT ?o WHERE { <http://x/nowhere> <http://x/p> ?o }`, nil},
		{"absent predicate", `SELECT ?s WHERE { ?s <http://x/nowhere> ?o }`, nil},
		{"absent literal", `SELECT ?s WHERE { ?s <http://x/p> "w" }`, nil},
		{"absent constant inside optional", `SELECT ?s WHERE { ?s a <http://x/C> . OPTIONAL { ?s <http://x/nowhere> ?o } }`, nil},
		{"absent constant in a union arm", `SELECT ?s WHERE { { ?s a <http://x/C> } UNION { ?s a <http://x/Nowhere> } }`, nil},
		{"service", `SELECT ?s WHERE { ?s a <http://x/C> . SERVICE <http://remote/sparql> { ?s <http://x/p> ?o } }`, nil},
		{"no pattern at all", `SELECT ?x WHERE { VALUES ?x { 1 2 } }`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parsed, err := Parse(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			f := parsed.Footprint(st)
			if len(f.Nodes) != 0 || len(f.Entities) != 0 {
				t.Fatalf("a query footprint is patterns only, got %+v", f)
			}
			if tc.want == nil {
				if !f.Whole() {
					t.Fatalf("footprint = %v, want the whole store", f.Patterns)
				}
				return
			}
			if fmt.Sprint(f.Patterns) != fmt.Sprint(tc.want) {
				t.Fatalf("patterns = %v, want %v", f.Patterns, tc.want)
			}
		})
	}
}
