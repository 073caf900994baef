package sparql

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

func TestResultsJSONSelect(t *testing.T) {
	r := &Results{
		Form: FormSelect,
		Vars: []string{"s", "name", "age"},
		Rows: []Binding{
			{
				"s":    rdf.IRI("http://e/alice"),
				"name": rdf.NewLangLiteral("Alice", "en"),
				"age":  rdf.NewInteger(30),
			},
			{
				"s": rdf.BlankNode("b0"),
				// name unbound in this row
				"age": rdf.NewLiteral("plain"),
			},
		},
	}
	body, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]JSONTerm `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(doc.Head.Vars) != 3 || doc.Head.Vars[1] != "name" {
		t.Fatalf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 2 {
		t.Fatalf("bindings = %d", len(doc.Results.Bindings))
	}
	b0 := doc.Results.Bindings[0]
	if b0["s"].Type != "uri" || b0["s"].Value != "http://e/alice" {
		t.Fatalf("s = %+v", b0["s"])
	}
	if b0["name"].Type != "literal" || b0["name"].Lang != "en" || b0["name"].Datatype != "" {
		t.Fatalf("name = %+v (lang literal must carry xml:lang, no datatype)", b0["name"])
	}
	if b0["age"].Datatype != string(rdf.XSDInteger) {
		t.Fatalf("age = %+v", b0["age"])
	}
	b1 := doc.Results.Bindings[1]
	if b1["s"].Type != "bnode" || b1["s"].Value != "b0" {
		t.Fatalf("bnode = %+v", b1["s"])
	}
	if _, present := b1["name"]; present {
		t.Fatal("unbound variable must be absent from its binding object")
	}
	if b1["age"].Datatype != "" {
		t.Fatalf("xsd:string datatype must be omitted, got %+v", b1["age"])
	}
}

func TestResultsJSONAsk(t *testing.T) {
	body, err := (&Results{Form: FormAsk, Ask: true}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Boolean *bool `json:"boolean"`
		Results *any  `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Boolean == nil || !*doc.Boolean {
		t.Fatalf("boolean = %v", doc.Boolean)
	}
	if doc.Results != nil {
		t.Fatal("ASK document must not carry results")
	}
}

func TestResultsJSONEmptySelect(t *testing.T) {
	body, err := (&Results{Form: FormSelect, Vars: []string{"x"}}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]JSONTerm `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Results.Bindings == nil || len(doc.Results.Bindings) != 0 {
		t.Fatalf("empty SELECT must serialize bindings as [], got %s", body)
	}
}

func TestEncodeTermDouble(t *testing.T) {
	jt := EncodeTerm(rdf.NewDouble(2.5))
	if jt.Type != "literal" || jt.Value != "2.5" || jt.Datatype != string(rdf.XSDDouble) {
		t.Fatalf("double = %+v", jt)
	}
}

// The document and the map per row that Results.JSON and the streaming
// endpoints handed to encoding/json before the append encoders replaced
// them: the references the appenders are held to byte for byte.
type (
	refHead struct {
		Vars []string `json:"vars,omitempty"`
	}
	refResults struct {
		Bindings []map[string]JSONTerm `json:"bindings"`
	}
	refDoc struct {
		Head    refHead     `json:"head"`
		Boolean *bool       `json:"boolean,omitempty"`
		Results *refResults `json:"results,omitempty"`
	}
)

func refBinding(row Binding) map[string]JSONTerm {
	enc := make(map[string]JSONTerm, len(row))
	for name, term := range row {
		if term != nil {
			enc[name] = EncodeTerm(term)
		}
	}
	return enc
}

// refEncode is json.Encoder.Encode of v without its newline: what the
// streaming endpoints wrote per line.
func refEncode(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

// jsonAgreementTerms is rdf's TestTermTextAgreement table plus the terms
// whose JSON escaping differs from their N-Triples text: HTML-special
// bytes, U+2028/U+2029, invalid UTF-8, and every datatype case EncodeTerm
// distinguishes.
var jsonAgreementTerms = []rdf.Term{
	rdf.IRI("http://e/x"),
	rdf.IRI("http://e/café?q=a&b=%20#frag"),
	rdf.IRI("urn:\U0001F600"),
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
	rdf.NewLiteral("non-BMP \U0001F600 \U0001D518 and BMP é \u1234 \u2028"),
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

	rdf.IRI("http://e/<script>&amp;</script>"),
	rdf.IRI("http://e/a>b<c&d"),
	rdf.BlankNode("b<&>"),
	rdf.NewLiteral("line\u2028separator and paragraph\u2029separator"),
	rdf.NewLiteral("invalid \xff\xfe UTF-8 and a cut rune \xe2\x82"),
	rdf.NewLangLiteral("<b>bold</b> & co", "en-US"),
	rdf.NewTypedLiteral("explicit string", rdf.XSDString),
	rdf.NewTypedLiteral("<x/>", rdf.IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#XMLLiteral")),
	rdf.NewTypedLiteral("1e21", rdf.IRI("http://e/dt?a=<1>&b=\u2028")),
}

// TestAppendRowMatchesEncoder: every term, alone and in rows with unbound,
// nil-bound and repeated variables, appends through AppendColumns exactly
// as the map-per-row encoding wrote it.
func TestAppendRowMatchesEncoder(t *testing.T) {
	check := func(vars []string, row Binding) {
		t.Helper()
		cols := make([]rdf.Term, len(vars))
		for i, v := range vars {
			cols[i] = row[v]
		}
		got := string(AppendColumns(nil, NewColumnOrder(vars), cols))
		if want := refEncode(t, refBinding(row)); got != want {
			t.Errorf("row %v:\n got %s\nwant %s", row, got, want)
		}
	}
	for i, term := range jsonAgreementTerms {
		check([]string{"x"}, Binding{"x": term})
		next := jsonAgreementTerms[(i+1)%len(jsonAgreementTerms)]
		check([]string{"z", "a", "m", "a"}, Binding{"z": term, "a": next, "m": nil})
		check([]string{"s", "o", "unbound"}, Binding{"o": term, "s": next})
	}
	check([]string{"x"}, Binding{})
	check(nil, Binding{})
}

// TestResultsJSONMatchesMarshal: Results.JSON is byte-identical to the
// json.Marshal of the document it used to build, so bodies and ETags are
// unchanged.
func TestResultsJSONMatchesMarshal(t *testing.T) {
	var rows []Binding
	for i, term := range jsonAgreementTerms {
		row := Binding{"s": term, "o": jsonAgreementTerms[(i+7)%len(jsonAgreementTerms)]}
		if i%3 == 0 {
			delete(row, "o")
		}
		rows = append(rows, row)
	}
	for _, r := range []*Results{
		{Form: FormSelect, Vars: []string{"s", "o", "<&>"}, Rows: rows},
		{Form: FormSelect, Vars: []string{"x"}},
		{Form: FormSelect, Vars: []string{}},
		{Form: FormSelect},
		{Form: FormAsk, Ask: true},
		{Form: FormAsk},
	} {
		doc := refDoc{Head: refHead{Vars: r.Vars}}
		if r.Form == FormAsk {
			doc.Boolean = &r.Ask
		} else {
			doc.Results = &refResults{Bindings: make([]map[string]JSONTerm, 0, len(r.Rows))}
			for _, row := range r.Rows {
				doc.Results.Bindings = append(doc.Results.Bindings, refBinding(row))
			}
		}
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v:\n got %s\nwant %s", r.Vars, got, want)
		}
	}
}

// TestAppendJSONFloat holds the float appender to encoding/json around its
// 'f'/'e' cutoffs (1e-6 and 1e21) and at the extremes; a non-finite value
// fails, as json.Marshal fails it, and leaves dst as it was.
func TestAppendJSONFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.5, 2.5, 1e20, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -math.Nextafter(1e-6, 0), 1e-7, 1.5e-7, 1e-10, 1e-300,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.5e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendJSONFloat([]byte("x"), f)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("%v: got %q, %v; want %q", f, got, err, "x"+string(want))
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%v) succeeded", f)
		}
		if got, err := AppendJSONFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("%v: got %q, %v; want an error and dst unchanged", f, got, err)
		}
	}
}

// FuzzAppendJSONString holds the string appender to json.Marshal on
// arbitrary bytes, valid UTF-8 or not.
func FuzzAppendJSONString(f *testing.F) {
	for _, term := range jsonAgreementTerms {
		jt := EncodeTerm(term)
		f.Add(jt.Value + jt.Lang + jt.Datatype)
	}
	f.Add("\x00\x1f\x7f\u2027\u2028\u2029\u202a\ufffd\xed\xa0\x80\xf4\x90\x80\x80")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("%q:\n got %s\nwant %s", s, got[1:], want)
		}
	})
}
