package rdf_test

import (
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/lodviz/lodviz/internal/ntriples"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/turtle"
)

const xsd = "http://www.w3.org/2001/XMLSchema#"

func TestParseTerm(t *testing.T) {
	good := []struct {
		in   string
		want rdf.Term
	}{
		{`<http://e/x>`, rdf.IRI("http://e/x")},
		{`<http://e/café>`, rdf.IRI("http://e/café")},
		{`<http://e/\U0001F600>`, rdf.IRI("http://e/😀")},
		{`_:b1`, rdf.BlankNode("b1")},
		{`_:a-b.c`, rdf.BlankNode("a-b.c")},
		{`""`, rdf.NewLiteral("")},
		{`"a\"b\\c\td\ne\rf\bg\fh\'i"`, rdf.NewLiteral("a\"b\\c\td\ne\rf\bg\fh'i")},
		{`"café \U0001F600"`, rdf.NewLiteral("café 😀")},
		{`"""long "quoted" and ""twice"" \""""`, rdf.NewLiteral(`long "quoted" and ""twice"" "`)},
		{`"bonjour"@FR-be`, rdf.NewLangLiteral("bonjour", "fr-be")},
		{`"x" @en`, rdf.NewLangLiteral("x", "en")},
		{`"5"^^<` + xsd + `integer>`, rdf.NewInteger(5)},
		{`"5" ^^ <` + xsd + `integer>`, rdf.NewInteger(5)},
	}
	for _, c := range good {
		got, err := rdf.ParseTerm(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseTerm(%s) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	bad := []string{
		``, `x`, `42`, `'single'`, `ex:name`,
		`<>`, `<http://e/x`, `<<x>`, `<a b>`, `<a"b>`, `<a{b}>`, `<a\nb>`, `<a>b>`, `<a\u00zz>`, `<a\u12>`, `<a\>`,
		`_:`, `_:.`, `_x`,
		`"open`, `"x\q"`, `"x\u12"`, `"x\U0000zzzz"`, `"x"@`, `"x"^^`, `"x"^^xsd:integer`, `"x"^^<a b>`,
		`<http://e/x> `, `"x" .`, `_:b1 <p>`,
	}
	for _, in := range bad {
		if got, err := rdf.ParseTerm(in); err == nil {
			t.Errorf("ParseTerm(%s) = %v, want an error", in, got)
		}
	}
}

func TestScanNumber(t *testing.T) {
	cases := []struct {
		in   string
		want rdf.Literal
		rest string
	}{
		{"42 .", rdf.NewTypedLiteral("42", rdf.XSDInteger), " ."},
		{"-7.", rdf.NewTypedLiteral("-7", rdf.XSDInteger), "."},
		{"+3.25;", rdf.NewTypedLiteral("+3.25", rdf.XSDDecimal), ";"},
		{".5)", rdf.NewTypedLiteral(".5", rdf.XSDDecimal), ")"},
		{"1e6", rdf.NewTypedLiteral("1e6", rdf.XSDDouble), ""},
		{"1.5E-3 ", rdf.NewTypedLiteral("1.5E-3", rdf.XSDDouble), " "},
	}
	for _, c := range cases {
		got, end, err := rdf.ScanNumber(c.in, 0)
		if err != nil || got != c.want || c.in[end:] != c.rest {
			t.Errorf("ScanNumber(%q) = %v, rest %q, %v; want %v, rest %q", c.in, got, c.in[end:], err, c.want, c.rest)
		}
	}
	for _, in := range []string{"", "+", "-.", ".", "1e", "1e+", "e5"} {
		if got, _, err := rdf.ScanNumber(in, 0); err == nil {
			t.Errorf("ScanNumber(%q) = %v, want an error", in, got)
		}
	}
}

func TestScanNameAndExpand(t *testing.T) {
	prefixes := map[string]string{"ex": "http://e/", "": "http://default/"}
	cases := []struct {
		in, word, rest string
		want           rdf.IRI
	}{
		{"ex:name .", "ex:name", " .", "http://e/name"},
		{"ex:a.b.", "ex:a.b", ".", "http://e/a.b"},
		{"ex:a%20b,", "ex:a%20b", ",", "http://e/a%20b"},
		{`ex:a\~b\.c;`, "ex:a~b.c", ";", "http://e/a~b.c"},
		{":x)", ":x", ")", "http://default/x"},
		{"ex: <", "ex:", " <", "http://e/"},
		{"ex:Αθήνα ", "ex:Αθήνα", " ", "http://e/Αθήνα"},
	}
	for _, c := range cases {
		word, end := rdf.ScanName(c.in, 0)
		if word != c.word || c.in[end:] != c.rest {
			t.Errorf("ScanName(%q) = %q, rest %q; want %q, rest %q", c.in, word, c.in[end:], c.word, c.rest)
			continue
		}
		if got, err := rdf.ExpandName(prefixes, word); err != nil || got != c.want {
			t.Errorf("ExpandName(%q) = %v, %v; want %v", word, got, err, c.want)
		}
	}
	if word, end := rdf.ScanName("SELECT*", 0); word != "SELECT" || end != 6 {
		t.Errorf(`ScanName("SELECT*") = %q, %d`, word, end)
	}
	for _, name := range []string{"nope:x", "keyword"} {
		if got, err := rdf.ExpandName(prefixes, name); err == nil {
			t.Errorf("ExpandName(%q) = %v, want an error", name, got)
		}
	}
}

// TestScanEnds holds the span-only scanners to the scanners that share
// their rules: IRIRefEnd is -1 exactly where ScanIRIRef fails and otherwise
// ends where it ends, and StringEnd ends where a literal's string ends,
// escapes skipped but not checked.
func TestScanEnds(t *testing.T) {
	for _, s := range []string{"<http://e/a> .", "<>", "< 3", "<= 3>", "<a<b>", `<a\u0041>`, `<a\u0020>`, `<a\x>`, `<a"b>`, "<abc", "<a>b>", "x"} {
		_, want, err := rdf.ScanIRIRef(s, 0)
		if err != nil {
			want = -1
		}
		if got := rdf.IRIRefEnd(s, 0); got != want {
			t.Errorf("IRIRefEnd(%q) = %d, want %d", s, got, want)
		}
	}
	for _, c := range []struct {
		s    string
		want int
	}{
		{`"a" x`, 3}, {`'a'`, 3}, {`"" x`, 2}, {`"""a"b""c""" x`, 12}, {`'''it's'''`, 10},
		{`"a\"b" x`, 6}, {`"a\\" x`, 5}, {`"a\qb" x`, 6}, {`"unterminated`, -1}, {`"""a""`, -1},
	} {
		if got := rdf.StringEnd(c.s, 0); got != c.want {
			t.Errorf("StringEnd(%q) = %d, want %d", c.s, got, c.want)
		}
		if _, end, err := rdf.ScanLiteral(c.s, 0, nil); err == nil && end != c.want {
			t.Errorf("ScanLiteral(%q) ends at %d, StringEnd at %d", c.s, end, c.want)
		}
	}
}

func TestSkipSpace(t *testing.T) {
	for in, rest := range map[string]string{
		"":                    "",
		"x":                   "x",
		" \t\r\n x ":          "x ",
		"# to the end":        "",
		"#c\n  # d\n<a> # e":  "<a> # e",
		"\n#only comments\n ": "",
	} {
		if got := in[rdf.SkipSpace(in, 0):]; got != rest {
			t.Errorf("SkipSpace(%q) leaves %q, want %q", in, got, rest)
		}
	}
}

// agreementTerms is what a dump, a query and a URL must all be able to say:
// the awkward lexical forms, every kind of literal tail, and the label
// characters the formats used to disagree on.
var agreementTerms = []rdf.Term{
	rdf.IRI("http://e/x"),
	rdf.IRI("http://e/café?q=a&b=%20#frag"),
	rdf.IRI("urn:😀"),
	rdf.BlankNode("b1"),
	rdf.BlankNode("a-b"),
	rdf.BlankNode("a.b_c-9"),
	rdf.BlankNode("ένα"),
	rdf.NewLiteral(""),
	rdf.NewLiteral("plain"),
	rdf.NewLiteral(`quote " and 'single'`),
	rdf.NewLiteral(`back\slash \n not a newline`),
	rdf.NewLiteral("tab\there\nnewline\rreturn"),
	rdf.NewLiteral("C0 \x00\x01\x07\b\f\x1b\x1f and DEL \x7f"),
	rdf.NewLiteral("non-BMP 😀 𝔘 and BMP é ሴ  "),
	rdf.NewLiteral(`ends with a quote"`),
	rdf.NewLiteral(`ends with a backslash\`),
	rdf.NewLiteral(`"""`),
	rdf.NewLiteral("# not a comment . ; , <x> _:b ?v"),
	rdf.NewLangLiteral("bonjour", "fr"),
	rdf.NewLangLiteral("colour \"quoted\"", "en-GB"),
	rdf.NewLangLiteral("1996", "de-1996"),
	rdf.NewInteger(-42),
	rdf.NewDouble(1.5e-7),
	rdf.NewBoolean(true),
	rdf.NewTypedLiteral("2016-03-15", rdf.XSDDate),
	rdf.NewTypedLiteral("a\"b\\c", rdf.IRI("http://e/dt#é")),
	rdf.NewTypedLiteral("no lang", rdf.RDFLangString),
}

// readers is every way term text gets into lodviz. Each takes the text
// Term.String wrote and returns the term it read.
var readers = []struct {
	name string
	read func(text string) (rdf.Term, error)
}{
	{"rdf.ParseTerm", rdf.ParseTerm},
	{"N-Triples line", func(text string) (rdf.Term, error) {
		ts, err := ntriples.ParseString("<http://e/s> <http://e/p> " + text + " .\n")
		return object(ts, err)
	}},
	{"Turtle document", func(text string) (rdf.Term, error) {
		ts, err := turtle.ParseString("@prefix ex: <http://e/> .\nex:s ex:p " + text + " .\n")
		return object(ts, err)
	}},
	{"SPARQL INSERT DATA", func(text string) (rdf.Term, error) {
		u, err := sparql.ParseUpdate("INSERT DATA { <http://e/s> <http://e/p> " + text + " }")
		if err != nil {
			return nil, err
		}
		return object(u.Ops[0].(sparql.InsertData).Triples, nil)
	}},
	{"SPARQL pattern constant", func(text string) (rdf.Term, error) {
		q, err := sparql.Parse("SELECT ?s WHERE { ?s <http://e/p> " + text + " }")
		if err != nil {
			return nil, err
		}
		return q.Where.Elems[0].(sparql.TriplePattern).O.Term, nil
	}},
}

func object(ts []rdf.Triple, err error) (rdf.Term, error) {
	if err != nil || len(ts) != 1 {
		return nil, err
	}
	return ts[0].O, nil
}

func checkAgreement(t *testing.T, term rdf.Term) {
	t.Helper()
	text := term.String()
	for _, r := range readers {
		if got, err := r.read(text); err != nil || got != term {
			t.Errorf("%s read %s as %#v, %v; want %#v", r.name, text, got, err, term)
		}
	}
}

// TestTermTextAgreement holds the five readers to one answer: whatever
// Term.String writes, each of them reads back as that term.
func TestTermTextAgreement(t *testing.T) {
	for _, term := range agreementTerms {
		checkAgreement(t, term)
	}
}

// FuzzTermText is TestTermTextAgreement over generated terms. kind picks the
// term's shape; text is its IRI, label or lexical form, aux its language tag
// or datatype. Text a term of that shape cannot hold is skipped, not
// repaired: Term.String escapes lexical forms only.
func FuzzTermText(f *testing.F) {
	for i, term := range agreementTerms {
		switch v := term.(type) {
		case rdf.IRI:
			f.Add(uint8(0), string(v), "")
		case rdf.BlankNode:
			f.Add(uint8(1), string(v), "")
		case rdf.Literal:
			f.Add(uint8(2+i%3), v.Lexical, v.Lang+string(v.Datatype))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, text, aux string) {
		if !utf8.ValidString(text) || !utf8.ValidString(aux) {
			return
		}
		var term rdf.Term
		switch kind % 5 {
		case 0:
			if !validIRI(text) {
				return
			}
			term = rdf.IRI(text)
		case 1:
			if text == "" || strings.HasSuffix(text, ".") || strings.ContainsFunc(text, func(r rune) bool { return !rdf.IsPNChar(r) }) {
				return
			}
			term = rdf.BlankNode(text)
		case 2:
			term = rdf.NewLiteral(text)
		case 3:
			if aux == "" || strings.Trim(aux, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-") != "" {
				return
			}
			term = rdf.NewLangLiteral(text, aux)
		case 4:
			if !validIRI(aux) {
				return
			}
			term = rdf.NewTypedLiteral(text, rdf.IRI(aux))
		}
		checkAgreement(t, term)
	})
}

// validIRI reports whether s can stand between '<' and '>' as it is.
func validIRI(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool {
		return r <= ' ' || strings.ContainsRune("<>\"{}|^`\\", r)
	})
}
