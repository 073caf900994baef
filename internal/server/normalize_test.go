package server

import (
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/sparql"
)

// lessThanThenString is a FILTER whose '<' is less-than and is followed by a
// string holding '>' and '#': read as an IRI start, the '<' runs to the '>'
// inside the string, and the '#' after it looks like a comment.
const lessThanThenString = `?s ?p ?o FILTER(?o < 3 || ?o != "x>y # ") `

func TestNormalizeQuery(t *testing.T) {
	cases := []struct {
		name, a, b string
		equal      bool
	}{
		{"whitespace runs", "SELECT ?s  WHERE\n{ ?s ?p ?o }", "SELECT ?s WHERE { ?s ?p ?o }", true},
		{"leading and trailing", "  ASK { ?s ?p ?o }\n", "ASK { ?s ?p ?o }", true},
		{"comments stripped", "SELECT ?s WHERE { ?s ?p ?o # match all\n}", "SELECT ?s WHERE { ?s ?p ?o }", true},
		{"string space preserved", `SELECT ?s WHERE { ?s ?p "a  b" }`, `SELECT ?s WHERE { ?s ?p "a b" }`, false},
		{"hash inside string kept", `ASK { ?s ?p "a#b" }`, `ASK { ?s ?p "ab" }`, false},
		{"iri preserved", "ASK { ?s <http://e/a#frag> ?o }", "ASK { ?s <http://e/afrag> ?o }", false},
		{"escaped quote in string", `ASK { ?s ?p "a\"  b" }`, `ASK { ?s ?p "a\" b" }`, false},
		{"long string newlines kept", "ASK { ?s ?p \"\"\"line1\n\nline2\"\"\" }", "ASK { ?s ?p \"\"\"line1\nline2\"\"\" }", false},
		{"distinct queries stay distinct", "ASK { ?s ?p 1 }", "ASK { ?s ?p 2 }", false},
		{"string after less-than read whole",
			"SELECT ?s WHERE { " + lessThanThenString + "} LIMIT 1",
			"SELECT ?s WHERE { " + lessThanThenString + "} LIMIT 2", false},
		{"SERVICE after less-than kept",
			"SELECT ?s WHERE { " + lessThanThenString + "SERVICE <http://e/sparql> { ?s ?p ?o } }",
			"SELECT ?s WHERE { " + lessThanThenString + "}", false},
		{"form feed is not white space", "ASK\f{ ?s ?p ?o }", "ASK { ?s ?p ?o }", false},
		{"escaped '#' in a prefixed name kept", "ASK { ex:a\\#b ?p ?o }", "ASK { ex:a\\#c ?p ?o }", false},
	}
	for _, c := range cases {
		na, nb := NormalizeQuery(c.a), NormalizeQuery(c.b)
		if (na == nb) != c.equal {
			t.Errorf("%s: NormalizeQuery equality = %v, want %v\n  a: %q -> %q\n  b: %q -> %q",
				c.name, na == nb, c.equal, c.a, na, c.b, nb)
		}
	}
}

func TestNormalizeQueryIdempotent(t *testing.T) {
	q := "SELECT ?s\nWHERE {\n  ?s a <http://e/C> . # typed\n  ?s <http://e/p> 'v  v'\n}"
	once := NormalizeQuery(q)
	if NormalizeQuery(once) != once {
		t.Fatalf("not idempotent: %q -> %q", once, NormalizeQuery(once))
	}
}

func TestNormalizeQueryUnterminated(t *testing.T) {
	// Degenerate inputs must not panic or loop; they normalize to something.
	for _, q := range []string{`ASK { ?s ?p "unterminated`, "ASK { ?s <unterminated", `'''`, `"`, "#only a comment"} {
		_ = NormalizeQuery(q)
	}
}

// FuzzNormalizeQuery holds the cache key to the lexer: a query and its
// normalized text either both fail to parse or parse to the same syntax tree
// (a Query holds no offsets), so two queries that share a key are one query.
// Normalizing is also idempotent.
func FuzzNormalizeQuery(f *testing.F) {
	for _, q := range []string{
		"SELECT ?s WHERE { " + lessThanThenString + "} LIMIT 1",
		"SELECT ?s WHERE { " + lessThanThenString + "SERVICE <http://e/sparql> { ?s ?p ?o } }",
		"ASK\f{ ?s ?p ?o }",
		"SELECT   ?s\nWHERE {\n  ?s a <http://e/C> . # typed\n  ?s <http://e/p> 'v  v'\n}",
		"ASK { ?s ?p \"\"\"line1\n\nline2\"\"\" }",
		`ASK { ?s ?p "a\"  b"@en }`,
		"ASK { ?s <http://e/a#frag> ?o FILTER(?o <= 2 && ?o<<http://e/x>) }",
		"SELECT ?s WHERE { ?s ?p [ ] } # trailing",
		"SELECT ?s WHERE { ?s ?p [\n] }",
		"PREFIX ex: <http://e/> ASK { ex:a\\#b ?p ?o . ex:c\\  ?p \"x\" }",
		`ASK { ?s ?p "unterminated`,
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		n := NormalizeQuery(q)
		if again := NormalizeQuery(n); again != n {
			t.Fatalf("not idempotent: %q -> %q -> %q", q, n, again)
		}
		a, errA := sparql.Parse(q)
		b, errB := sparql.Parse(n)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("parse of %q: %v; of its key %q: %v", q, errA, n, errB)
		}
		if errA == nil && !reflect.DeepEqual(a, b) {
			t.Fatalf("%q and its key %q parse to different queries:\n%#v\n%#v", q, n, a, b)
		}
	})
}

// BenchmarkNormalizeQuery times the cache key of the six /sparql shapes the
// end-to-end benchmark's session_warm sends. Each of its repeats is a cache
// hit, so this is the only reading of the query text such a request does.
func BenchmarkNormalizeQuery(b *testing.B) {
	const (
		ns    = "http://lodviz.example.org/"
		typ   = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
		label = "<http://www.w3.org/2000/01/rdf-schema#label>"
	)
	queries := []string{
		"SELECT ?p ?o WHERE { <" + ns + "entity/4711> ?p ?o } LIMIT 100",
		"SELECT ?o ?l WHERE { <" + ns + "entity/4711> <" + ns + "prop/rel0> ?o . ?o " + label + " ?l } LIMIT 100",
		"SELECT ?s ?v WHERE { ?s " + typ + " <" + ns + "class/3> . ?s <" + ns + "prop/cat1> \"category-7\" . ?s <" + ns + "prop/num0> ?v . FILTER(?v > 35) } ORDER BY DESC(?v) LIMIT 100",
		"SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <" + ns + "prop/cat1> \"category-7\" . ?s " + typ + " <" + ns + "class/3> . ?s <" + ns + "prop/cat2> ?c } GROUP BY ?c LIMIT 100",
		"SELECT ?s WHERE { ?s <" + ns + "prop/rel1> <" + ns + "entity/815> } LIMIT 100",
		"SELECT ?s ?v WHERE { ?s <" + ns + "prop/cat0> \"category-3\" . ?s <" + ns + "prop/num1> ?v }",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey = NormalizeQuery(queries[i%len(queries)])
	}
}

var sinkKey string
