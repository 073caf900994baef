package turtle

import (
	"fmt"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Parser parses a Turtle document into triples.
type Parser struct {
	lx       *lexer
	tok      token
	peeked   *token
	out      []rdf.Triple
	bnodeSeq int
}

// Parse parses src as a Turtle document and returns its triples. Prefix
// declarations inside the document are honored; extraPrefixes (may be nil)
// provides out-of-band prefixes, as SPARQL endpoints commonly do.
func Parse(src string, extraPrefixes map[string]string) ([]rdf.Triple, error) {
	p := &Parser{lx: newLexer(src)}
	for k, v := range extraPrefixes {
		p.lx.prefixes[k] = v
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokEOF {
		if err := p.parseStatement(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// ParseString parses src with no extra prefixes.
func ParseString(src string) ([]rdf.Triple, error) { return Parse(src, nil) }

func (p *Parser) errf(format string, args ...any) error {
	return fmt.Errorf("turtle: line %d: %s", p.tok.line, fmt.Sprintf(format, args...))
}

func (p *Parser) advance() error {
	if p.peeked != nil {
		p.tok = *p.peeked
		p.peeked = nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *Parser) expect(k tokenKind) error {
	if p.tok.kind != k {
		return p.errf("expected %v, found %v", k, p.tok.kind)
	}
	return p.advance()
}

func (p *Parser) freshBlank() rdf.BlankNode {
	p.bnodeSeq++
	return rdf.BlankNode(fmt.Sprintf("genid%d", p.bnodeSeq))
}

func (p *Parser) emit(s rdf.Term, pr rdf.IRI, o rdf.Term) {
	p.out = append(p.out, rdf.Triple{S: s, P: pr, O: o})
}

func (p *Parser) parseStatement() error {
	switch p.tok.kind {
	case tokPrefixDecl:
		return p.parsePrefix()
	case tokBaseDecl:
		return p.parseBase()
	default:
		if err := p.parseTriples(); err != nil {
			return err
		}
		return p.expect(tokDot)
	}
}

// A declaration takes effect before the token after it is read: that token
// may already be a name the declaration resolves.
func (p *Parser) parsePrefix() error {
	label, err := p.lx.prefixLabel()
	if err != nil {
		return err
	}
	if err := p.advance(); err != nil {
		return err
	}
	ns, err := p.iri()
	if err != nil {
		return err
	}
	p.lx.prefixes[label] = string(ns)
	return p.endDirective()
}

func (p *Parser) parseBase() error {
	if err := p.advance(); err != nil {
		return err
	}
	base, err := p.iri()
	if err != nil {
		return err
	}
	p.lx.base = string(base)
	return p.endDirective()
}

// endDirective steps over the directive's IRI and the dot that '@prefix' and
// '@base' require and SPARQL-style 'PREFIX' and 'BASE' forbid.
func (p *Parser) endDirective() error {
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind == tokDot {
		return p.advance()
	}
	return nil
}

func (p *Parser) parseTriples() error {
	switch p.tok.kind {
	case tokLBracket:
		// Blank node property list as subject.
		subj, err := p.parseBlankNodePropertyList()
		if err != nil {
			return err
		}
		// Optional predicateObjectList follows.
		if p.tok.kind != tokDot {
			return p.parsePredicateObjectList(subj)
		}
		return nil
	default:
		subj, err := p.parseSubject()
		if err != nil {
			return err
		}
		return p.parsePredicateObjectList(subj)
	}
}

func (p *Parser) parseSubject() (rdf.Term, error) {
	switch {
	case p.tok.kind == tokTerm && p.tok.term.Kind() != rdf.KindLiteral,
		p.tok.kind == tokAnon, p.tok.kind == tokLParen:
		return p.parseObject()
	default:
		return nil, p.errf("expected subject, found %v", p.tok.kind)
	}
}

// iri returns the IRI the current token must be.
func (p *Parser) iri() (rdf.IRI, error) {
	iri, ok := p.tok.term.(rdf.IRI)
	if !ok {
		return "", p.errf("expected IRI, found %v", p.tok.kind)
	}
	return iri, nil
}

func (p *Parser) parseIRITerm() (rdf.IRI, error) {
	iri, err := p.iri()
	if err != nil {
		return "", err
	}
	return iri, p.advance()
}

func (p *Parser) parsePredicateObjectList(subj rdf.Term) error {
	for {
		var pred rdf.IRI
		var err error
		if p.tok.kind == tokA {
			pred = rdf.RDFType
			if err := p.advance(); err != nil {
				return err
			}
		} else {
			pred, err = p.parseIRITerm()
			if err != nil {
				return err
			}
		}
		if err := p.parseObjectList(subj, pred); err != nil {
			return err
		}
		if p.tok.kind != tokSemicolon {
			return nil
		}
		// Consume one or more semicolons; a trailing ';' before '.' or ']' is legal.
		for p.tok.kind == tokSemicolon {
			if err := p.advance(); err != nil {
				return err
			}
		}
		if p.tok.kind == tokDot || p.tok.kind == tokRBracket {
			return nil
		}
	}
}

func (p *Parser) parseObjectList(subj rdf.Term, pred rdf.IRI) error {
	for {
		obj, err := p.parseObject()
		if err != nil {
			return err
		}
		p.emit(subj, pred, obj)
		if p.tok.kind != tokComma {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
}

func (p *Parser) parseObject() (rdf.Term, error) {
	switch p.tok.kind {
	case tokTerm:
		t := p.tok.term
		return t, p.advance()
	case tokAnon:
		b := p.freshBlank()
		return b, p.advance()
	case tokLBracket:
		return p.parseBlankNodePropertyList()
	case tokLParen:
		return p.parseCollection()
	default:
		return nil, p.errf("expected object, found %v", p.tok.kind)
	}
}

// parseBlankNodePropertyList parses '[' predicateObjectList ']' and returns
// the fresh blank node standing for it.
func (p *Parser) parseBlankNodePropertyList() (rdf.Term, error) {
	if err := p.expect(tokLBracket); err != nil {
		return nil, err
	}
	b := p.freshBlank()
	if err := p.parsePredicateObjectList(b); err != nil {
		return nil, err
	}
	if err := p.expect(tokRBracket); err != nil {
		return nil, err
	}
	return b, nil
}

// parseCollection parses '(' object* ')' into an rdf:first/rdf:rest list and
// returns its head (rdf:nil when empty).
func (p *Parser) parseCollection() (rdf.Term, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var head, tail rdf.Term
	for p.tok.kind != tokRParen {
		obj, err := p.parseObject()
		if err != nil {
			return nil, err
		}
		cell := p.freshBlank()
		if head == nil {
			head = cell
		} else {
			p.emit(tail, rdf.RDFRest, cell)
		}
		p.emit(cell, rdf.RDFFirst, obj)
		tail = cell
	}
	if err := p.advance(); err != nil { // consume ')'
		return nil, err
	}
	if head == nil {
		return rdf.RDFNil, nil
	}
	p.emit(tail, rdf.RDFRest, rdf.RDFNil)
	return head, nil
}

// resolveIRI resolves iri against the current @base using a pragmatic subset
// of RFC 3986: absolute IRIs (with a scheme) pass through; fragment-only,
// absolute-path and relative-path references are joined to the base.
func (lx *lexer) resolveIRI(iri string) string {
	if lx.base == "" || hasScheme(iri) {
		return iri
	}
	switch {
	case iri == "":
		return lx.base
	case strings.HasPrefix(iri, "#"):
		if i := strings.IndexByte(lx.base, '#'); i >= 0 {
			return lx.base[:i] + iri
		}
		return lx.base + iri
	case strings.HasPrefix(iri, "/"):
		// Keep scheme://authority of base.
		if i := strings.Index(lx.base, "://"); i >= 0 {
			rest := lx.base[i+3:]
			if j := strings.IndexByte(rest, '/'); j >= 0 {
				return lx.base[:i+3+j] + iri
			}
		}
		return strings.TrimSuffix(lx.base, "/") + iri
	default:
		// Relative path: replace everything after the last '/'.
		if i := strings.LastIndexByte(lx.base, '/'); i >= 0 {
			return lx.base[:i+1] + iri
		}
		return lx.base + iri
	}
}

func hasScheme(iri string) bool {
	for i := 0; i < len(iri); i++ {
		c := iri[i]
		if c == ':' {
			return i > 0
		}
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.')) {
			return false
		}
	}
	return false
}
