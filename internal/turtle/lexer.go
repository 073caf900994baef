// Package turtle parses the Terse RDF Triple Language (Turtle, RDF 1.1). It
// supports the subset used by real-world Linked Open Data dumps: prefix and
// base directives, prefixed names, the 'a' keyword, predicate and object
// lists, blank node property lists, collections, and the numeric / boolean /
// string literal shorthands.
//
// The terminals — IRI references, strings and their escapes, language tags,
// blank node labels, numbers, prefixed names, white space and comments — are
// read by the scanners of internal/rdf, the same ones N-Triples, SPARQL and
// the server's URL parameters use. What is Turtle's own is here: directives,
// punctuation, the 'a' keyword, and the prefixes and base a document
// declares, applied as its names are read.
package turtle

import (
	"errors"
	"fmt"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

type tokenKind int

const (
	tokEOF        tokenKind = iota
	tokTerm                 // an IRI, blank node label or literal, resolved: token.term
	tokA                    // keyword a
	tokPrefixDecl           // @prefix or PREFIX
	tokBaseDecl             // @base or BASE
	tokDot
	tokSemicolon
	tokComma
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokAnon // []
)

func (k tokenKind) String() string {
	names := map[tokenKind]string{
		tokEOF: "EOF", tokTerm: "term",
		tokA: "'a'", tokPrefixDecl: "@prefix", tokBaseDecl: "@base",
		tokDot: "'.'", tokSemicolon: "';'", tokComma: "','",
		tokLBracket: "'['", tokRBracket: "']'", tokLParen: "'('",
		tokRParen: "')'", tokAnon: "'[]'",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

type token struct {
	kind tokenKind
	term rdf.Term
	line int
}

type lexer struct {
	src string
	pos int
	// line is the line of src[counted]; lineAt moves both forward.
	line, counted int
	// What the document has declared so far. Names are resolved as they are
	// read, so a token never outlives the declarations it was read under.
	prefixes map[string]string
	base     string
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, prefixes: map[string]string{}}
}

// lineAt returns the line of offset pos. Offsets are asked about in
// increasing order, so each newline is counted once.
func (lx *lexer) lineAt(pos int) int {
	if pos > lx.counted {
		lx.line += strings.Count(lx.src[lx.counted:pos], "\n")
		lx.counted = pos
	}
	return lx.line
}

func (lx *lexer) errAt(pos int, err error) error {
	return fmt.Errorf("turtle: line %d: %v", lx.lineAt(pos), err)
}

var punctuation = map[byte]tokenKind{
	';': tokSemicolon, ',': tokComma, '(': tokLParen, ')': tokRParen,
	'[': tokLBracket, ']': tokRBracket, '.': tokDot,
}

// next returns the next token.
func (lx *lexer) next() (token, error) {
	src := lx.src
	start := rdf.SkipSpace(src, lx.pos)
	lx.pos = start
	if start >= len(src) {
		return lx.emit(tokEOF, nil, start), nil
	}
	digitAt := func(i int) bool { return i < len(src) && src[i] >= '0' && src[i] <= '9' }
	switch c := src[start]; {
	case c == '<':
		iri, end, err := rdf.ScanIRIRef(src, start)
		return lx.term(rdf.IRI(lx.resolveIRI(string(iri))), end, err)
	case c == '"' || c == '\'':
		l, end, err := rdf.ScanLiteral(src, start, lx.prefixes)
		l.Datatype = rdf.IRI(lx.resolveIRI(string(l.Datatype)))
		return lx.term(l, end, err)
	case c == '_':
		return lx.term(rdf.ScanBlankLabel(src, start))
	case c == '+' || c == '-' || digitAt(start) || c == '.' && digitAt(start+1):
		return lx.term(rdf.ScanNumber(src, start))
	case c == '[':
		// ANON: '[' ws* ']'
		if end := rdf.SkipSpace(src, start+1); end < len(src) && src[end] == ']' {
			return lx.emit(tokAnon, nil, end+1), nil
		}
	case c == '@':
		// A language tag is read with its string; what is left is a directive.
		switch word, end := rdf.ScanName(src, start+1); word {
		case "prefix":
			return lx.emit(tokPrefixDecl, nil, end), nil
		case "base":
			return lx.emit(tokBaseDecl, nil, end), nil
		}
		return token{}, lx.errAt(start, errors.New("expected @prefix or @base"))
	}
	if kind, ok := punctuation[src[start]]; ok {
		return lx.emit(kind, nil, start+1), nil
	}
	// Keywords, booleans, prefixed names.
	word, end := rdf.ScanName(src, start)
	switch {
	case word == "":
		return token{}, lx.errAt(start, fmt.Errorf("unexpected character %q", src[start]))
	case word == "a":
		return lx.emit(tokA, nil, end), nil
	case word == "true" || word == "false":
		return lx.term(rdf.NewTypedLiteral(word, rdf.XSDBoolean), end, nil)
	case strings.EqualFold(word, "PREFIX"):
		return lx.emit(tokPrefixDecl, nil, end), nil
	case strings.EqualFold(word, "BASE"):
		return lx.emit(tokBaseDecl, nil, end), nil
	}
	iri, err := rdf.ExpandName(lx.prefixes, word)
	return lx.term(iri, end, err)
}

// emit returns the token that starts at lx.pos and ends before end.
func (lx *lexer) emit(kind tokenKind, t rdf.Term, end int) token {
	tk := token{kind: kind, term: t, line: lx.lineAt(lx.pos)}
	lx.pos = end
	return tk
}

// term is emit for what a scanner of internal/rdf returned.
func (lx *lexer) term(t rdf.Term, end int, err error) (token, error) {
	if err != nil {
		return token{}, lx.errAt(end, err)
	}
	return lx.emit(tokTerm, t, end), nil
}

// prefixLabel reads the "label:" that follows @prefix or PREFIX.
func (lx *lexer) prefixLabel() (string, error) {
	label, end, err := rdf.ScanPrefixLabel(lx.src, rdf.SkipSpace(lx.src, lx.pos))
	if err != nil {
		return "", lx.errAt(end, err)
	}
	lx.pos = end
	return label, nil
}
