package ntriples

import (
	"io"
	"strings"
	"testing"
	"testing/quick"

	"github.com/lodviz/lodviz/internal/rdf"
)

func TestParseBasicTriples(t *testing.T) {
	doc := `
# a comment
<http://e/s> <http://e/p> <http://e/o> .
<http://e/s> <http://e/name> "Alice" .
_:b1 <http://e/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://e/s> <http://e/label> "Bonjour"@fr .
`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(ts) != 4 {
		t.Fatalf("got %d triples, want 4", len(ts))
	}
	if ts[0].O != rdf.IRI("http://e/o") {
		t.Errorf("triple 0 object = %v", ts[0].O)
	}
	if ts[1].O != rdf.NewLiteral("Alice") {
		t.Errorf("triple 1 object = %v", ts[1].O)
	}
	if ts[2].S != rdf.BlankNode("b1") {
		t.Errorf("triple 2 subject = %v", ts[2].S)
	}
	if got, ok := ts[2].O.(rdf.Literal); !ok || got.Datatype != rdf.XSDInteger {
		t.Errorf("triple 2 object datatype = %v", ts[2].O)
	}
	if ts[3].O != rdf.NewLangLiteral("Bonjour", "fr") {
		t.Errorf("triple 3 object = %v", ts[3].O)
	}
}

func TestParseEscapes(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "line1\nline2\ttab \"quoted\" back\\slash" .`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	want := "line1\nline2\ttab \"quoted\" back\\slash"
	if got := ts[0].O.(rdf.Literal).Lexical; got != want {
		t.Errorf("lexical = %q, want %q", got, want)
	}
}

func TestParseUnicodeEscapes(t *testing.T) {
	doc := `<http://e/s> <http://e/p> "café \U0001F600" .`
	ts, err := ParseString(doc)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if got := ts[0].O.(rdf.Literal).Lexical; got != "café 😀" {
		t.Errorf("lexical = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://e/s> <http://e/p> <http://e/o>`,        // missing dot
		`<http://e/s> <http://e/p> .`,                   // missing object
		`"lit" <http://e/p> <http://e/o> .`,             // literal subject
		`<http://e/s> <http://e/p> "unterminated .`,     // unterminated literal
		`<http://e/s> <http://e/p> <http://e/o> . junk`, // trailing junk
		`<http://e/s> <unclosed <http://e/o> .`,         // unterminated IRI
		`_: <http://e/p> <http://e/o> .`,                // empty blank label
		`<http://e/s> <http://e/p> "x"@ .`,              // empty lang tag
		`<http://e/s> <http://e/p> "x\q" .`,             // bad escape
	}
	for _, doc := range bad {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", doc)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	doc := "<http://e/s> <http://e/p> <http://e/o> .\nbogus line\n"
	_, err := ParseString(doc)
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type = %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Errorf("Line = %d, want 2", pe.Line)
	}
	// The column is that of the byte the shared scanners stopped at.
	for doc, col := range map[string]string{
		`<http://e/s> <http://e/p> "x\q" .`:        "(col 29)",
		`<http://e/s> <http://e/p\u00zz> "x" .`:    "(col 25)",
		`<http://e/s> <http://e/ p> "x" .`:         "(col 24)",
		`<http://e/s> <http://e/p> "x"^^<a b> .`:   "(col 34)",
		`<http://e/s> <http://e/p> <http://e/o> ;`: "(col 40)",
	} {
		_, err := ParseString("# comment\n" + doc)
		pe, ok := err.(*ParseError)
		if !ok || pe.Line != 2 || !strings.HasSuffix(pe.Msg, col) {
			t.Errorf("ParseString(%s) = %v, want a *ParseError on line 2 ending %s", doc, err, col)
		}
	}
}

func TestStreamingReader(t *testing.T) {
	doc := strings.Repeat("<http://e/s> <http://e/p> \"v\" .\n", 100)
	r := NewReader(strings.NewReader(doc))
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 100 {
		t.Errorf("streamed %d triples, want 100", n)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	in := []rdf.Triple{
		rdf.T(rdf.IRI("http://e/s"), "http://e/p", rdf.IRI("http://e/o")),
		rdf.T(rdf.BlankNode("x"), "http://e/p", rdf.NewLangLiteral("héllo\n", "en-gb")),
		rdf.T(rdf.IRI("http://e/s"), "http://e/p", rdf.NewInteger(-7)),
		rdf.T(rdf.IRI("http://e/s"), "http://e/p", rdf.NewLiteral(`tab\t "q"`)),
	}
	var sb strings.Builder
	if err := Write(&sb, in); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out, err := ParseString(sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("triple %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	err := Write(&sb, []rdf.Triple{{S: rdf.NewLiteral("bad"), P: "p", O: rdf.IRI("o")}})
	if err == nil {
		t.Error("Write accepted invalid triple")
	}
}

// Property: any literal built from printable text round-trips through
// serialization and parsing.
func TestLiteralRoundTripProperty(t *testing.T) {
	f := func(lex string, langSeed uint8) bool {
		if !isValidUTF8NoControls(lex) {
			return true
		}
		var o rdf.Term
		switch langSeed % 3 {
		case 0:
			o = rdf.NewLiteral(lex)
		case 1:
			o = rdf.NewLangLiteral(lex, "en")
		default:
			o = rdf.NewTypedLiteral(lex, rdf.IRI("http://e/dt"))
		}
		tr := rdf.T(rdf.IRI("http://e/s"), "http://e/p", o)
		out, err := ParseString(Format([]rdf.Triple{tr}))
		return err == nil && len(out) == 1 && out[0] == tr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func isValidUTF8NoControls(s string) bool {
	for _, r := range s {
		if r == '�' || (r < 0x20 && r != '\n' && r != '\t' && r != '\r') {
			return false
		}
	}
	return true
}

func TestFormat(t *testing.T) {
	s := Format([]rdf.Triple{rdf.T(rdf.IRI("http://e/s"), "http://e/p", rdf.NewLiteral("v"))})
	if s != "<http://e/s> <http://e/p> \"v\" .\n" {
		t.Errorf("Format = %q", s)
	}
}
