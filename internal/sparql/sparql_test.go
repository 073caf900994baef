package sparql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/turtle"
)

const testData = `
@prefix ex: <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .

ex:alice a foaf:Person ;
    foaf:name "Alice" ;
    foaf:age 30 ;
    foaf:knows ex:bob, ex:carol .

ex:bob a foaf:Person ;
    foaf:name "Bob" ;
    foaf:age 25 ;
    foaf:knows ex:carol .

ex:carol a foaf:Person ;
    foaf:name "Carol" ;
    foaf:age 35 .

ex:athens a ex:City ;
    ex:label "Athens"@en ;
    ex:population 664046 .

ex:bordeaux a ex:City ;
    ex:label "Bordeaux"@fr ;
    ex:population 252040 .
`

func testStore(t *testing.T) *store.Store {
	t.Helper()
	triples, err := turtle.ParseString(testData)
	if err != nil {
		t.Fatalf("parse test data: %v", err)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return st
}

func exec(t *testing.T, st *store.Store, q string) *Results {
	t.Helper()
	res, err := ExecCtx(context.Background(), st, q, Options{})
	if err != nil {
		t.Fatalf("ExecCtx(%q): %v", q, err)
	}
	return res
}

func TestSelectBasic(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name WHERE { ?p a foaf:Person ; foaf:name ?name . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r["name"].(rdf.Literal).Lexical] = true
	}
	for _, n := range []string{"Alice", "Bob", "Carol"} {
		if !names[n] {
			t.Errorf("missing %s in %v", n, names)
		}
	}
}

func TestSelectStar(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT * WHERE { ?p foaf:knows ?q }`)
	if len(res.Vars) != 2 || res.Vars[0] != "p" || res.Vars[1] != "q" {
		t.Errorf("Vars = %v", res.Vars)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	st := testStore(t)
	// Friends of friends of alice.
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?fof WHERE { ex:alice foaf:knows ?f . ?f foaf:knows ?fof . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0]["fof"] != rdf.IRI("http://example.org/carol") {
		t.Errorf("fof = %v", res.Rows[0]["fof"])
	}
}

func TestFilterNumericComparison(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE { ?p foaf:age ?a . FILTER(?a > 28) }`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2 (alice 30, carol 35)", len(res.Rows))
	}
}

func TestFilterLogicalOps(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE { ?p foaf:age ?a . FILTER(?a >= 25 && ?a < 31 || ?a = 35) }`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestFilterRegexAndStr(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE { ?p foaf:name ?n . FILTER REGEX(?n, "^A") }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	res = exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE { ?p foaf:name ?n . FILTER REGEX(?n, "^a", "i") }`)
	if len(res.Rows) != 1 {
		t.Errorf("case-insensitive regex rows = %d, want 1", len(res.Rows))
	}
}

func TestFilterStringFunctions(t *testing.T) {
	st := testStore(t)
	cases := []struct {
		filter string
		want   int
	}{
		{`STRSTARTS(?n, "B")`, 1},
		{`STRENDS(?n, "ob")`, 1},
		{`CONTAINS(?n, "aro")`, 1},
		{`STRLEN(?n) = 5`, 2}, // Alice, Carol
		{`UCASE(?n) = "BOB"`, 1},
		{`LCASE(?n) = "alice"`, 1},
	}
	for _, c := range cases {
		q := fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE { ?p foaf:name ?n . FILTER(%s) }`, c.filter)
		res := exec(t, st, q)
		if len(res.Rows) != c.want {
			t.Errorf("filter %s: rows = %d, want %d", c.filter, len(res.Rows), c.want)
		}
	}
}

func TestFilterLangAndDatatype(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?c WHERE { ?c ex:label ?l . FILTER(LANG(?l) = "en") }`)
	if len(res.Rows) != 1 || res.Rows[0]["c"] != rdf.IRI("http://example.org/athens") {
		t.Errorf("lang filter rows = %v", res.Rows)
	}
	res = exec(t, st, `
PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?c WHERE { ?c ex:population ?p . FILTER(DATATYPE(?p) = xsd:integer) }`)
	if len(res.Rows) != 2 {
		t.Errorf("datatype filter rows = %d, want 2", len(res.Rows))
	}
}

func TestFilterTermKindTests(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:athens ?p ?o . FILTER(ISLITERAL(?o)) }`)
	if len(res.Rows) != 2 {
		t.Errorf("ISLITERAL rows = %d, want 2", len(res.Rows))
	}
	res = exec(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:athens ?p ?o . FILTER(ISIRI(?o)) }`)
	if len(res.Rows) != 1 {
		t.Errorf("ISIRI rows = %d, want 1", len(res.Rows))
	}
}

func TestOptional(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p ?q WHERE { ?p a foaf:Person . OPTIONAL { ?p foaf:knows ?q } }`)
	// alice knows 2, bob knows 1, carol knows none (but appears once).
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	carolRows := 0
	for _, r := range res.Rows {
		if r["p"] == rdf.IRI("http://example.org/carol") {
			carolRows++
			if _, bound := r["q"]; bound {
				t.Error("carol's ?q should be unbound")
			}
		}
	}
	if carolRows != 1 {
		t.Errorf("carol rows = %d, want 1", carolRows)
	}
}

func TestOptionalWithBound(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE {
  ?p a foaf:Person .
  OPTIONAL { ?p foaf:knows ?q }
  FILTER(!BOUND(?q))
}`)
	if len(res.Rows) != 1 || res.Rows[0]["p"] != rdf.IRI("http://example.org/carol") {
		t.Errorf("negation-by-failure rows = %v", res.Rows)
	}
}

func TestUnion(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { { ?x a foaf:Person } UNION { ?x a ex:City } }`)
	if len(res.Rows) != 5 {
		t.Errorf("union rows = %d, want 5", len(res.Rows))
	}
}

func TestBind(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p ?next WHERE { ?p foaf:age ?a . BIND(?a + 1 AS ?next) }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		v, _ := r["next"].(rdf.Literal).Int()
		if v != 26 && v != 31 && v != 36 {
			t.Errorf("next = %v", r["next"])
		}
	}
}

func TestValues(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p ?name WHERE {
  VALUES ?p { ex:alice ex:bob }
  ?p foaf:name ?name .
}`)
	if len(res.Rows) != 2 {
		t.Errorf("VALUES rows = %d, want 2", len(res.Rows))
	}
}

func TestValuesMultiColumn(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
SELECT ?a ?b WHERE {
  VALUES (?a ?b) { (ex:alice ex:bob) (ex:bob UNDEF) }
}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name WHERE { ?p foaf:name ?name ; foaf:age ?a } ORDER BY DESC(?a)`)
	want := []string{"Carol", "Alice", "Bob"}
	for i, w := range want {
		if got := res.Rows[i]["name"].(rdf.Literal).Lexical; got != w {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
	res = exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?name WHERE { ?p foaf:name ?name ; foaf:age ?a } ORDER BY ?a LIMIT 1 OFFSET 1`)
	if len(res.Rows) != 1 || res.Rows[0]["name"].(rdf.Literal).Lexical != "Alice" {
		t.Errorf("limit/offset rows = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT DISTINCT ?type WHERE { ?s a ?type }`)
	if len(res.Rows) != 2 {
		t.Errorf("distinct types = %d, want 2", len(res.Rows))
	}
}

func TestAsk(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { ex:alice foaf:knows ex:bob }`)
	if !res.Ask {
		t.Error("ASK = false, want true")
	}
	res = exec(t, st, `
PREFIX ex: <http://example.org/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
ASK { ex:bob foaf:knows ex:alice }`)
	if res.Ask {
		t.Error("ASK = true, want false")
	}
}

func TestAggregatesCountSumAvg(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT (COUNT(*) AS ?n) (SUM(?a) AS ?total) (AVG(?a) AS ?mean) WHERE { ?p foaf:age ?a }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if n, _ := r["n"].(rdf.Literal).Int(); n != 3 {
		t.Errorf("count = %v", r["n"])
	}
	if s, _ := r["total"].(rdf.Literal).Int(); s != 90 {
		t.Errorf("sum = %v", r["total"])
	}
	if m, _ := r["mean"].(rdf.Literal).Float(); m != 30 {
		t.Errorf("avg = %v", r["mean"])
	}
}

func TestAggregatesMinMaxSample(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) (SAMPLE(?a) AS ?any) WHERE { ?p foaf:age ?a }`)
	r := res.Rows[0]
	if lo, _ := r["lo"].(rdf.Literal).Int(); lo != 25 {
		t.Errorf("min = %v", r["lo"])
	}
	if hi, _ := r["hi"].(rdf.Literal).Int(); hi != 35 {
		t.Errorf("max = %v", r["hi"])
	}
	if _, ok := r["any"]; !ok {
		t.Error("sample unbound")
	}
}

func TestGroupByWithHaving(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p (COUNT(?q) AS ?n) WHERE { ?p foaf:knows ?q }
GROUP BY ?p
HAVING (COUNT(?q) > 1)`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only alice knows >1)", len(res.Rows))
	}
	if res.Rows[0]["p"] != rdf.IRI("http://example.org/alice") {
		t.Errorf("p = %v", res.Rows[0]["p"])
	}
	if n, _ := res.Rows[0]["n"].(rdf.Literal).Int(); n != 2 {
		t.Errorf("n = %v", res.Rows[0]["n"])
	}
}

func TestGroupByOrderByAggregate(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p (COUNT(?q) AS ?n) WHERE { ?p foaf:knows ?q }
GROUP BY ?p
ORDER BY DESC(COUNT(?q))`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["p"] != rdf.IRI("http://example.org/alice") {
		t.Errorf("first by count = %v", res.Rows[0]["p"])
	}
}

func TestCountDistinct(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT (COUNT(DISTINCT ?q) AS ?n) WHERE { ?p foaf:knows ?q }`)
	if n, _ := res.Rows[0]["n"].(rdf.Literal).Int(); n != 2 {
		t.Errorf("distinct objects = %v, want 2 (bob, carol)", res.Rows[0]["n"])
	}
}

func TestGroupConcat(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT (GROUP_CONCAT(?n ; SEPARATOR = ",") AS ?names)
WHERE { ?p foaf:name ?n } ORDER BY ?p`)
	got := res.Rows[0]["names"].(rdf.Literal).Lexical
	// Order inside the group follows solution order; just check membership.
	for _, want := range []string{"Alice", "Bob", "Carol"} {
		if !containsStr(got, want) {
			t.Errorf("GROUP_CONCAT = %q missing %s", got, want)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})())
}

func TestCountAllEmptyGroup(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX ex: <http://example.org/>
SELECT (COUNT(*) AS ?n) WHERE { ?s ex:nonexistent ?o }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if n, _ := res.Rows[0]["n"].(rdf.Literal).Int(); n != 0 {
		t.Errorf("count = %v, want 0", res.Rows[0]["n"])
	}
}

func TestBindIfCoalesce(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p ?cls WHERE {
  ?p foaf:age ?a .
  BIND(IF(?a >= 30, "senior", "junior") AS ?cls)
}`)
	seniors := 0
	for _, r := range res.Rows {
		if r["cls"].(rdf.Literal).Lexical == "senior" {
			seniors++
		}
	}
	if seniors != 2 {
		t.Errorf("seniors = %d, want 2", seniors)
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	st := testStore(t)
	// Add a self-loop to test repeated-variable unification.
	st.Add(rdf.T(rdf.IRI("http://example.org/dave"), "http://xmlns.com/foaf/0.1/knows", rdf.IRI("http://example.org/dave")))
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?x WHERE { ?x foaf:knows ?x }`)
	if len(res.Rows) != 1 || res.Rows[0]["x"] != rdf.IRI("http://example.org/dave") {
		t.Errorf("self-loop rows = %v", res.Rows)
	}
}

func TestSubGroupAndNestedFilters(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p WHERE {
  { ?p foaf:age ?a . FILTER(?a > 26) }
  ?p foaf:name ?n .
}`)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT ?x`,
		`SELECT ?x WHERE { ?x }`,
		`SELECT ?x WHERE { ?x ?p }`,
		`FOO ?x WHERE { ?x ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o`,
		`SELECT ?x WHERE { ?x nope:broken ?o }`,
		`SELECT (COUNT(?x) AS) WHERE { ?x ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?o } LIMIT nope`,
		`SELECT ?x WHERE { ?x ?p ?o } GROUP BY`,
		`SELECT ?x WHERE { FILTER }`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

// TestAnonSpacing: the white space inside [] is the white space between
// tokens, newlines and comments included, so a query reads the same after
// the server's cache key has collapsed it.
func TestAnonSpacing(t *testing.T) {
	want, err := Parse("SELECT ?s WHERE { ?s ?p [] }")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT ?s WHERE { ?s ?p [ ] }", "SELECT ?s WHERE { ?s ?p [\n\t] }", "SELECT ?s WHERE { ?s ?p [ # none\n] }"} {
		got, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", q, got, want)
		}
	}
}

// TestConstantSpellings holds query constants to the spellings the data
// formats accept: each of these failed to parse, or parsed to another term,
// while the SPARQL lexer scanned its own terminals.
func TestConstantSpellings(t *testing.T) {
	cases := []struct {
		constant string
		want     rdf.Term
	}{
		{`"caf\u00e9"`, rdf.NewLiteral("café")},
		{`"\U0001F600"`, rdf.NewLiteral("😀")},
		{`"bell\b feed\f"`, rdf.NewLiteral("bell\b feed\f")},
		{`"""long "quoted"
string"""`, rdf.NewLiteral("long \"quoted\"\nstring")},
		{`'''it's'''`, rdf.NewLiteral("it's")},
		{`_:a-b`, rdf.BlankNode("a-b")},
		{`_:a.b`, rdf.BlankNode("a.b")},
		{`ex:a%20b`, rdf.IRI("http://ex/a%20b")},
		{`ex:a\~b`, rdf.IRI("http://ex/a~b")},
		{`<http://ex/caf\u00e9>`, rdf.IRI("http://ex/café")},
		{`"1996"@de-1996`, rdf.NewLangLiteral("1996", "de-1996")},
		{`"5"^^ex:int`, rdf.NewTypedLiteral("5", "http://ex/int")},
	}
	for _, c := range cases {
		q, err := Parse("PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:p " + c.constant + " . FILTER(?s != " + c.constant + ") }")
		if err != nil {
			t.Errorf("%s: %v", c.constant, err)
			continue
		}
		if got := q.Where.Elems[0].(TriplePattern).O.Term; got != c.want {
			t.Errorf("%s in a pattern = %#v, want %#v", c.constant, got, c.want)
		}
		if got := q.Where.Filters[0].(ExBinary).Right.(ExTerm).Term; got != c.want {
			t.Errorf("%s in a FILTER = %#v, want %#v", c.constant, got, c.want)
		}
	}
	for _, bad := range []string{`_:`, `"x\q"`, `<http://ex/\u00zz>`, `"open`} {
		if _, err := Parse("SELECT ?s WHERE { ?s ?p " + bad + " }"); err == nil {
			t.Errorf("Parse accepted the constant %s", bad)
		}
	}
}

// TestEscapedIRIMatchesLoadedData is the end of the same drift: a query
// spelling an IRI with \uXXXX finds what Turtle loaded from that spelling.
func TestEscapedIRIMatchesLoadedData(t *testing.T) {
	triples, err := turtle.ParseString(`<http://ex/caf\u00e9> <http://ex/serves> "espresso" .`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	res := exec(t, st, `SELECT ?what WHERE { <http://ex/caf\u00e9> <http://ex/serves> ?what }`)
	if len(res.Rows) != 1 || res.Rows[0]["what"] != rdf.NewLiteral("espresso") {
		t.Fatalf("rows = %v, want the one espresso", res.Rows)
	}
}

func TestBindErrorLeavesUnbound(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?p ?bad WHERE { ?p foaf:name ?n . BIND(?n + 1 AS ?bad) }`)
	for _, r := range res.Rows {
		if _, bound := r["bad"]; bound {
			t.Error("?bad should be unbound after type error")
		}
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestArithmetics(t *testing.T) {
	st := testStore(t)
	res := exec(t, st, `
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT (AVG(?x) AS ?v) WHERE { ?p foaf:age ?a . BIND(?a * 2 - 10 AS ?x) }`)
	if v, _ := res.Rows[0]["v"].(rdf.Literal).Float(); v != 50 {
		t.Errorf("avg(2a-10) = %v, want 50", res.Rows[0]["v"])
	}
}

func TestLargerJoinOrdering(t *testing.T) {
	// Star join over a generated dataset: verifies reordering correctness,
	// not just performance.
	st := store.New()
	for i := 0; i < 200; i++ {
		s := rdf.IRI(fmt.Sprintf("http://e/item%d", i))
		st.Add(rdf.T(s, "http://e/type", rdf.IRI("http://e/Item")))
		st.Add(rdf.T(s, "http://e/val", rdf.NewInteger(int64(i))))
		if i%10 == 0 {
			st.Add(rdf.T(s, "http://e/special", rdf.NewBoolean(true)))
		}
	}
	res, err := ExecCtx(context.Background(), st, `
SELECT ?s ?v WHERE {
  ?s <http://e/type> <http://e/Item> .
  ?s <http://e/special> true .
  ?s <http://e/val> ?v .
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Errorf("rows = %d, want 20", len(res.Rows))
	}
}

func TestNumericLiteralForms(t *testing.T) {
	st := store.New()
	st.Add(rdf.T(rdf.IRI("http://e/x"), "http://e/v", rdf.NewDecimal(2.5)))
	res, err := ExecCtx(context.Background(), st, `SELECT ?s WHERE { ?s <http://e/v> ?v . FILTER(?v = 2.5) }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("decimal compare rows = %d", len(res.Rows))
	}
}
