package turtle

import (
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

func mustParse(t *testing.T, src string) []rdf.Triple {
	t.Helper()
	ts, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", src, err)
	}
	return ts
}

func TestPrefixAndBasicTriples(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
@prefix foaf: <http://xmlns.com/foaf/0.1/> .
ex:alice foaf:name "Alice" .
ex:alice foaf:knows ex:bob .
`
	ts := mustParse(t, src)
	if len(ts) != 2 {
		t.Fatalf("got %d triples, want 2", len(ts))
	}
	if ts[0].S != rdf.IRI("http://example.org/alice") {
		t.Errorf("subject = %v", ts[0].S)
	}
	if ts[0].P != rdf.IRI("http://xmlns.com/foaf/0.1/name") {
		t.Errorf("predicate = %v", ts[0].P)
	}
	if ts[1].O != rdf.IRI("http://example.org/bob") {
		t.Errorf("object = %v", ts[1].O)
	}
}

func TestSPARQLStylePrefix(t *testing.T) {
	src := `
PREFIX ex: <http://example.org/>
ex:s ex:p ex:o .
`
	ts := mustParse(t, src)
	if len(ts) != 1 || ts[0].S != rdf.IRI("http://example.org/s") {
		t.Errorf("triples = %v", ts)
	}
}

func TestAKeywordAndLists(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:alice a ex:Person ;
    ex:age 30 ;
    ex:likes ex:bob, ex:carol .
`
	ts := mustParse(t, src)
	if len(ts) != 4 {
		t.Fatalf("got %d triples, want 4: %v", len(ts), ts)
	}
	if ts[0].P != rdf.RDFType {
		t.Errorf("'a' not expanded: %v", ts[0].P)
	}
	if got := ts[1].O.(rdf.Literal); got.Datatype != rdf.XSDInteger || got.Lexical != "30" {
		t.Errorf("integer sugar = %v", got)
	}
	if ts[2].O != rdf.IRI("http://example.org/bob") || ts[3].O != rdf.IRI("http://example.org/carol") {
		t.Errorf("object list wrong: %v %v", ts[2].O, ts[3].O)
	}
}

func TestLiteralSugar(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.14 ;
     ex:dbl 6.02e23 ;
     ex:bool true ;
     ex:str "plain" ;
     ex:lang "bonjour"@fr ;
     ex:typed "2016-03-15"^^<http://www.w3.org/2001/XMLSchema#date> .
`
	ts := mustParse(t, src)
	want := map[string]rdf.IRI{
		"42": rdf.XSDInteger, "-7": rdf.XSDInteger, "3.14": rdf.XSDDecimal,
		"6.02e23": rdf.XSDDouble, "true": rdf.XSDBoolean, "plain": rdf.XSDString,
		"2016-03-15": rdf.XSDDate,
	}
	found := 0
	for _, tr := range ts {
		l, ok := tr.O.(rdf.Literal)
		if !ok {
			t.Fatalf("non-literal object %v", tr.O)
		}
		if dt, ok := want[l.Lexical]; ok {
			found++
			if l.Datatype != dt {
				t.Errorf("lexical %q datatype = %v, want %v", l.Lexical, l.Datatype, dt)
			}
		}
		if l.Lexical == "bonjour" && l.Lang != "fr" {
			t.Errorf("lang = %q", l.Lang)
		}
	}
	if found != len(want) {
		t.Errorf("found %d of %d typed literals", found, len(want))
	}
}

func TestBlankNodePropertyList(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:alice ex:address [ ex:city "Athens" ; ex:zip "11527" ] .
`
	ts := mustParse(t, src)
	if len(ts) != 3 {
		t.Fatalf("got %d triples, want 3: %v", len(ts), ts)
	}
	addr, ok := ts[len(ts)-1].O.(rdf.BlankNode)
	if !ok {
		// The bnode triples may come before the linking triple; find it.
		for _, tr := range ts {
			if tr.P == "http://example.org/address" {
				addr, ok = tr.O.(rdf.BlankNode)
			}
		}
	}
	if !ok {
		t.Fatal("no blank node object for ex:address")
	}
	cityFound := false
	for _, tr := range ts {
		if tr.S == addr && tr.P == "http://example.org/city" {
			cityFound = tr.O == rdf.NewLiteral("Athens")
		}
	}
	if !cityFound {
		t.Error("blank node property list did not attach city")
	}
}

func TestBlankNodeSubjectPropertyList(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
[ ex:p ex:o ] ex:q ex:r .
[] ex:standalone ex:v .
`
	ts := mustParse(t, src)
	if len(ts) != 3 {
		t.Fatalf("got %d triples, want 3: %v", len(ts), ts)
	}
}

func TestCollections(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:list ( ex:a ex:b ) .
ex:s ex:empty () .
`
	ts := mustParse(t, src)
	// List of 2: 2 first + 2 rest + 1 link = 5; empty: 1 link = 1.
	if len(ts) != 6 {
		t.Fatalf("got %d triples, want 6: %v", len(ts), ts)
	}
	var emptyObj rdf.Term
	firsts, rests := 0, 0
	for _, tr := range ts {
		switch tr.P {
		case rdf.RDFFirst:
			firsts++
		case rdf.RDFRest:
			rests++
		case "http://example.org/empty":
			emptyObj = tr.O
		}
	}
	if firsts != 2 || rests != 2 {
		t.Errorf("firsts=%d rests=%d", firsts, rests)
	}
	if emptyObj != rdf.RDFNil {
		t.Errorf("empty collection = %v, want rdf:nil", emptyObj)
	}
}

func TestBaseResolution(t *testing.T) {
	src := `
@base <http://example.org/data/page.ttl> .
<#frag> <rel> </abs> .
`
	ts := mustParse(t, src)
	tr := ts[0]
	if tr.S != rdf.IRI("http://example.org/data/page.ttl#frag") {
		t.Errorf("fragment resolution = %v", tr.S)
	}
	if tr.P != rdf.IRI("http://example.org/data/rel") {
		t.Errorf("relative resolution = %v", tr.P)
	}
	if tr.O != rdf.IRI("http://example.org/abs") {
		t.Errorf("absolute-path resolution = %v", tr.O)
	}
}

func TestLongStrings(t *testing.T) {
	src := "@prefix ex: <http://example.org/> .\n" +
		"ex:s ex:p \"\"\"multi\nline \"quoted\" text\"\"\" .\n"
	ts := mustParse(t, src)
	want := "multi\nline \"quoted\" text"
	if got := ts[0].O.(rdf.Literal).Lexical; got != want {
		t.Errorf("long string = %q, want %q", got, want)
	}
}

// TestLongStringEscapedQuote: the closing delimiter is the first three quotes
// no backslash escapes, which a search for `"""` alone gets wrong.
func TestLongStringEscapedQuote(t *testing.T) {
	for src, want := range map[string]string{
		`<http://e/s> <http://e/p> """x\"""" .`:           `x"`,
		`<http://e/s> <http://e/p> """a\"""b""" .`:        `a"""b`,
		`<http://e/s> <http://e/p> '''it's \'''' .`:       `it's '`,
		`<http://e/s> <http://e/p> """two "" inside""" .`: `two "" inside`,
	} {
		ts := mustParse(t, src)
		if got := ts[0].O.(rdf.Literal).Lexical; got != want {
			t.Errorf("%s: lexical = %q, want %q", src, got, want)
		}
	}
}

// TestSharedTerminals pins what Turtle gained from reading its terminals
// through internal/rdf: local-name escapes are resolved, a language subtag
// may hold digits, and an IRI escape cannot smuggle in a delimiter.
func TestSharedTerminals(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://example.org/> .
ex:a\~b ex:p%20q "1996"@de-1996 , "5" ^^ ex:int , 'single' .
`)
	if ts[0].S != rdf.IRI("http://example.org/a~b") || ts[0].P != rdf.IRI("http://example.org/p%20q") {
		t.Errorf("escaped names = %v %v", ts[0].S, ts[0].P)
	}
	want := []rdf.Term{rdf.NewLangLiteral("1996", "de-1996"), rdf.NewTypedLiteral("5", "http://example.org/int"), rdf.NewLiteral("single")}
	for i, w := range want {
		if ts[i].O != w {
			t.Errorf("object %d = %#v, want %#v", i, ts[i].O, w)
		}
	}
	for _, bad := range []string{
		`<http://e/s\u003e> <http://e/p> "x" .`,
		`<http://e/s\\t> <http://e/p> "x" .`,
		`<http://e/s> <http://e/p> "x"@ .`,
		`<http://e/s> <http://e/p> _: .`,
		`<http://e/s> <http://e/p> @en .`,
	} {
		if _, err := ParseString(bad); err == nil {
			t.Errorf("ParseString(%s) succeeded, want error", bad)
		}
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := `
# full line comment
@prefix ex: <http://example.org/> . # trailing
ex:s ex:p ex:o . # done
`
	if ts := mustParse(t, src); len(ts) != 1 {
		t.Errorf("got %d triples, want 1", len(ts))
	}
}

func TestTrailingSemicolon(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:p ex:o ; .
`
	if ts := mustParse(t, src); len(ts) != 1 {
		t.Errorf("got %d triples, want 1", len(ts))
	}
}

func TestUndeclaredPrefixError(t *testing.T) {
	if _, err := ParseString(`nope:s nope:p nope:o .`); err == nil {
		t.Error("expected undeclared-prefix error")
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		`@prefix ex <http://e/> .`,                   // missing colon
		`<http://e/s> <http://e/p>`,                  // missing object+dot
		`<http://e/s> <http://e/p> "x"`,              // missing dot
		`<http://e/s> "notapredicate" <o> .`,         // literal predicate
		`<http://e/s> <http://e/p> "unclosed .`,      // unclosed string
		`<http://e/s> <http://e/p> ( <http://e/a> .`, // unclosed collection
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

// TestErrorLine: errors name the line of the offending text, also after a
// token that spans lines and for errors the term scanners report.
func TestErrorLine(t *testing.T) {
	for src, line := range map[string]string{
		"@prefix ex: <http://e/> .\nex:s ex:p \"\"\"one\ntwo\nthree\"\"\" ;\n  ex:q \"bad \\q\" .": "line 5:",
		"<http://e/s>\n<http://e/p>\nnope:o .":                                                     "line 3:",
		"<http://e/s> # comment\n\n  <http://e/p> <http://e/o> ;\n;\n<x> .":                        "line 5:",
		"<http://e/s> <http://e/p>\n\"never closed":                                                "line 2:",
	} {
		if _, err := ParseString(src); err == nil || !strings.Contains(err.Error(), line) {
			t.Errorf("ParseString(%q) = %v, want an error on %s", src, err, line)
		}
	}
}

func TestExtraPrefixes(t *testing.T) {
	ts, err := Parse(`foaf:a foaf:b foaf:c .`, map[string]string{"foaf": "http://xmlns.com/foaf/0.1/"})
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if ts[0].S != rdf.IRI("http://xmlns.com/foaf/0.1/a") {
		t.Errorf("extra prefix not applied: %v", ts[0].S)
	}
}

func TestEmptyPrefixLabel(t *testing.T) {
	src := `
@prefix : <http://example.org/> .
:s :p :o .
`
	ts := mustParse(t, src)
	if ts[0].S != rdf.IRI("http://example.org/s") {
		t.Errorf("empty prefix: %v", ts[0].S)
	}
}

func TestLargeDocument(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix ex: <http://example.org/> .\n")
	for i := 0; i < 5000; i++ {
		b.WriteString("ex:s")
		b.WriteString(strings.Repeat("x", i%3))
		b.WriteString(" ex:p ")
		b.WriteString(`"v" .`)
		b.WriteString("\n")
	}
	ts := mustParse(t, b.String())
	if len(ts) != 5000 {
		t.Errorf("got %d triples, want 5000", len(ts))
	}
}

func TestNestedBlankNodes(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:p [ ex:q [ ex:r "deep" ] ] .
`
	ts := mustParse(t, src)
	if len(ts) != 3 {
		t.Fatalf("got %d triples, want 3", len(ts))
	}
	found := false
	for _, tr := range ts {
		if l, ok := tr.O.(rdf.Literal); ok && l.Lexical == "deep" {
			found = true
		}
	}
	if !found {
		t.Error("nested literal lost")
	}
}

func TestUnicodeInNames(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:Αθήνα ex:étiquette "καλημέρα"@el .
`
	ts := mustParse(t, src)
	if ts[0].S != rdf.IRI("http://example.org/Αθήνα") {
		t.Errorf("unicode subject = %v", ts[0].S)
	}
}
