// Package rdf implements the RDF data model used throughout lodviz: terms
// (IRIs, blank nodes, literals), triples, and the XSD value system needed for
// ordering, filtering and aggregating Web-of-Data values.
//
// The model follows RDF 1.1 Concepts. Terms are small immutable values that
// are comparable with == (literals are normalized on construction), so they
// can be used directly as map keys.
//
// The package also owns how a term is spelled in text. Term.String writes
// N-Triples form, and syntax.go reads the terminals of the Turtle family —
// IRI references, quoted strings and their escapes, language tags, blank node
// labels, numeric shorthands, prefixed names, white space and comments — for
// every consumer: internal/ntriples, internal/turtle, internal/sparql and the
// server's URL parameters scan no terminal of their own, so a term loaded one
// way is spelled the same way, and found, through the others. binary.go is the
// one binary spelling, which internal/wal and internal/snapshot both write.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind int

// The order of the kinds matches the SPARQL ORDER BY term ordering
// (blank nodes < IRIs < literals), so Compare can order by kind numerically.
const (
	// KindBlank identifies a blank node term.
	KindBlank TermKind = iota
	// KindIRI identifies an IRI term.
	KindIRI
	// KindLiteral identifies a literal term.
	KindLiteral
)

func (k TermKind) String() string {
	switch k {
	case KindIRI:
		return "iri"
	case KindBlank:
		return "blank"
	case KindLiteral:
		return "literal"
	default:
		return fmt.Sprintf("TermKind(%d)", int(k))
	}
}

// Term is an RDF term: an IRI, a blank node, or a literal.
//
// All implementations are comparable value types; two terms are equal in the
// RDF sense exactly when they are == in Go.
type Term interface {
	// Kind reports which kind of term this is.
	Kind() TermKind
	// String renders the term in N-Triples syntax.
	String() string
	// value is a marker preventing foreign implementations, which keeps the
	// == equality guarantee sound.
	value() Term
}

// IRI is an RDF IRI reference such as <http://example.org/alice>.
type IRI string

// Kind implements Term.
func (IRI) Kind() TermKind { return KindIRI }

// String renders the IRI in N-Triples syntax.
func (i IRI) String() string { return "<" + string(i) + ">" }

func (i IRI) value() Term { return i }

// LocalName returns the part of the IRI after the last '#', '/' or ':',
// which is what most visualization front-ends display as a label fallback.
func (i IRI) LocalName() string {
	s := string(i)
	if idx := strings.LastIndexAny(s, "#/:"); idx >= 0 && idx+1 < len(s) {
		return s[idx+1:]
	}
	return s
}

// Namespace returns the prefix of the IRI up to and including the last '#',
// '/' or ':'. For IRIs with no separator it returns the empty string.
func (i IRI) Namespace() string {
	s := string(i)
	if idx := strings.LastIndexAny(s, "#/:"); idx >= 0 {
		return s[:idx+1]
	}
	return ""
}

// BlankNode is an RDF blank node with a document-scoped label, e.g. _:b12.
type BlankNode string

// Kind implements Term.
func (BlankNode) Kind() TermKind { return KindBlank }

// String renders the blank node in N-Triples syntax.
func (b BlankNode) String() string { return "_:" + string(b) }

func (b BlankNode) value() Term { return b }

// Literal is an RDF literal: a lexical form plus a datatype IRI, and for
// rdf:langString literals a language tag.
//
// Construct literals with NewLiteral, NewLangLiteral or the typed helpers
// (NewInteger, NewDouble, ...) so normalization invariants hold.
type Literal struct {
	// Lexical is the lexical form, e.g. "42" or "hello".
	Lexical string
	// Datatype is the datatype IRI. Plain literals carry XSDString;
	// language-tagged literals carry RDFLangString.
	Datatype IRI
	// Lang is the language tag (lowercased), empty unless Datatype is
	// rdf:langString.
	Lang string
}

// Kind implements Term.
func (Literal) Kind() TermKind { return KindLiteral }

// String renders the literal in N-Triples syntax.
func (l Literal) String() string {
	q := quoteLiteral(l.Lexical)
	switch {
	case l.Lang != "":
		return q + "@" + l.Lang
	case l.Datatype != "" && l.Datatype != XSDString:
		return q + "^^" + l.Datatype.String()
	default:
		return q
	}
}

func (l Literal) value() Term { return l }

// quoteLiteral writes a lexical form as a quoted string that every reader of
// syntax.go takes back: the one place lodviz escapes a string literal.
func quoteLiteral(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// NewLiteral returns a plain (xsd:string) literal.
func NewLiteral(lexical string) Literal {
	return Literal{Lexical: lexical, Datatype: XSDString}
}

// NewTypedLiteral returns a literal with an explicit datatype.
func NewTypedLiteral(lexical string, datatype IRI) Literal {
	if datatype == "" {
		datatype = XSDString
	}
	return Literal{Lexical: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal. The tag is lowercased as
// required for term equality in RDF 1.1.
func NewLangLiteral(lexical, lang string) Literal {
	return Literal{Lexical: lexical, Datatype: RDFLangString, Lang: strings.ToLower(lang)}
}

// NewInteger returns an xsd:integer literal.
func NewInteger(v int64) Literal {
	return Literal{Lexical: strconv.FormatInt(v, 10), Datatype: XSDInteger}
}

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Literal {
	return Literal{Lexical: strconv.FormatFloat(v, 'g', -1, 64), Datatype: XSDDouble}
}

// NewDecimal returns an xsd:decimal literal.
func NewDecimal(v float64) Literal {
	return Literal{Lexical: strconv.FormatFloat(v, 'f', -1, 64), Datatype: XSDDecimal}
}

// NewBoolean returns an xsd:boolean literal.
func NewBoolean(v bool) Literal {
	return Literal{Lexical: strconv.FormatBool(v), Datatype: XSDBoolean}
}

// NewDateTime returns an xsd:dateTime literal in RFC 3339 / XSD canonical form.
func NewDateTime(t time.Time) Literal {
	return Literal{Lexical: t.UTC().Format("2006-01-02T15:04:05Z"), Datatype: XSDDateTime}
}

// NewDate returns an xsd:date literal.
func NewDate(t time.Time) Literal {
	return Literal{Lexical: t.UTC().Format("2006-01-02"), Datatype: XSDDate}
}

// NewYear returns an xsd:gYear literal.
func NewYear(y int) Literal {
	return Literal{Lexical: fmt.Sprintf("%04d", y), Datatype: XSDGYear}
}

// IsNumeric reports whether the literal has a numeric XSD datatype.
func (l Literal) IsNumeric() bool {
	switch l.Datatype {
	case XSDInteger, XSDDecimal, XSDDouble, XSDFloat, XSDInt, XSDLong,
		XSDShort, XSDByte, XSDNonNegativeInteger, XSDPositiveInteger,
		XSDNegativeInteger, XSDNonPositiveInteger, XSDUnsignedInt,
		XSDUnsignedLong:
		return true
	}
	return false
}

// IsTemporal reports whether the literal has a date/time XSD datatype.
func (l Literal) IsTemporal() bool {
	switch l.Datatype {
	case XSDDateTime, XSDDate, XSDGYear, XSDGYearMonth, XSDTime:
		return true
	}
	return false
}

// Float returns the numeric value of the literal, if it has one.
func (l Literal) Float() (float64, bool) {
	if !l.IsNumeric() {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(l.Lexical), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Int returns the integer value of the literal, if it has one.
func (l Literal) Int() (int64, bool) {
	switch l.Datatype {
	case XSDInteger, XSDInt, XSDLong, XSDShort, XSDByte,
		XSDNonNegativeInteger, XSDPositiveInteger, XSDNegativeInteger,
		XSDNonPositiveInteger, XSDUnsignedInt, XSDUnsignedLong:
		v, err := strconv.ParseInt(strings.TrimSpace(l.Lexical), 10, 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

// Bool returns the boolean value of the literal, if it has one.
func (l Literal) Bool() (bool, bool) {
	if l.Datatype != XSDBoolean {
		return false, false
	}
	switch strings.TrimSpace(l.Lexical) {
	case "true", "1":
		return true, true
	case "false", "0":
		return false, true
	}
	return false, false
}

// Time returns the temporal value of the literal, if it has one.
func (l Literal) Time() (time.Time, bool) {
	lex := strings.TrimSpace(l.Lexical)
	var layouts []string
	switch l.Datatype {
	case XSDDateTime:
		layouts = []string{"2006-01-02T15:04:05Z07:00", "2006-01-02T15:04:05", "2006-01-02T15:04:05.999999999Z07:00"}
	case XSDDate:
		layouts = []string{"2006-01-02", "2006-01-02Z07:00"}
	case XSDGYear:
		layouts = []string{"2006"}
	case XSDGYearMonth:
		layouts = []string{"2006-01"}
	case XSDTime:
		layouts = []string{"15:04:05", "15:04:05Z07:00"}
	default:
		return time.Time{}, false
	}
	for _, layout := range layouts {
		if t, err := time.Parse(layout, lex); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// Triple is an RDF statement (subject, predicate, object).
type Triple struct {
	// S is the subject: an IRI or a blank node.
	S Term
	// P is the predicate: always an IRI.
	P IRI
	// O is the object: any term.
	O Term
}

// String renders the triple as one N-Triples line (without newline).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Valid reports whether the triple is well-formed per RDF 1.1: the subject is
// an IRI or blank node, the predicate a non-empty IRI, and the object any
// non-nil term.
func (t Triple) Valid() bool {
	if t.S == nil || t.O == nil || t.P == "" {
		return false
	}
	if t.S.Kind() == KindLiteral {
		return false
	}
	return true
}

// T is a convenience constructor for triples in tests and examples.
func T(s Term, p IRI, o Term) Triple { return Triple{S: s, P: p, O: o} }
