package sparql

import (
	"fmt"
	"strconv"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Parse parses a SPARQL query string. Errors returned here (and only here)
// match ErrParse under errors.Is.
func Parse(src string) (*Query, error) {
	p := newParser(src)
	if err := p.advance(); err != nil {
		return nil, wrapParse(err)
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, wrapParse(err)
	}
	if p.tok.kind != tEOF {
		return nil, wrapParse(p.errf("unexpected trailing %v", p.tok.kind))
	}
	q.prefixes = p.prefixes
	return q, nil
}

func newParser(src string) *parser {
	prefixes := map[string]string{}
	return &parser{lx: &lexer{src: src, prefixes: prefixes}, prefixes: prefixes}
}

type parser struct {
	lx       *lexer
	tok      tok
	peeked   *tok
	prefixes map[string]string
	bnodeSeq int
	// groundOnly rejects variables (and [] anonymous nodes, which desugar to
	// variables) inside a triples block; update data blocks set it.
	groundOnly bool
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: parse: %s (near offset %d)", fmt.Sprintf(format, args...), p.tok.pos)
}

func (p *parser) advance() error {
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

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tKeyword && p.tok.text == kw
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return p.advance()
}

func (p *parser) expect(k tokKind) error {
	if p.tok.kind != k {
		return p.errf("expected %v, found %v", k, p.tok.kind)
	}
	return p.advance()
}

// parsePrologue consumes the shared PREFIX/BASE prologue (queries and
// updates use the same one).
func (p *parser) parsePrologue() error {
	for {
		switch {
		case p.isKeyword("PREFIX"):
			label, err := p.lx.prefixLabel()
			if err != nil {
				return err
			}
			if err := p.advance(); err != nil {
				return err
			}
			ns, ok := p.tok.term.(rdf.IRI)
			if !ok {
				return p.errf("expected namespace IRI")
			}
			// Declared before the next token is read: it may use the prefix.
			p.prefixes[label] = string(ns)
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("BASE"):
			if err := p.advance(); err != nil {
				return err
			}
			if _, ok := p.tok.term.(rdf.IRI); !ok {
				return p.errf("expected base IRI")
			}
			if err := p.advance(); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.parsePrologue(); err != nil {
		return nil, err
	}
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("ASK"):
		return p.parseAsk()
	default:
		return nil, p.errf("expected SELECT or ASK")
	}
}

func (p *parser) parseSelect() (*Query, error) {
	q := &Query{Form: FormSelect, Limit: -1}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.isKeyword("DISTINCT") {
		q.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else if p.isKeyword("REDUCED") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind == tStar {
		q.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		for p.tok.kind == tVar || p.tok.kind == tLParen {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Projection = append(q.Projection, item)
		}
		if len(q.Projection) == 0 {
			return nil, p.errf("empty SELECT clause")
		}
	}
	if p.isKeyword("WHERE") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = g
	if err := p.parseModifiers(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.tok.kind == tVar {
		v := p.tok.text
		return SelectItem{Var: v}, p.advance()
	}
	// '(' Expr AS ?var ')'
	if err := p.expect(tLParen); err != nil {
		return SelectItem{}, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return SelectItem{}, err
	}
	if p.tok.kind != tVar {
		return SelectItem{}, p.errf("expected variable after AS")
	}
	v := p.tok.text
	if err := p.advance(); err != nil {
		return SelectItem{}, err
	}
	if err := p.expect(tRParen); err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Var: v, Expr: e}, nil
}

func (p *parser) parseAsk() (*Query, error) {
	q := &Query{Form: FormAsk, Limit: -1}
	if err := p.advance(); err != nil {
		return nil, err
	}
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	q.Where = g
	return q, nil
}

func (p *parser) parseModifiers(q *Query) error {
	if p.isKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			e, ok, err := p.tryParseGroupKey()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			q.GroupBy = append(q.GroupBy, e)
		}
		if len(q.GroupBy) == 0 {
			return p.errf("empty GROUP BY")
		}
	}
	if p.isKeyword("HAVING") {
		if err := p.advance(); err != nil {
			return err
		}
		for p.tok.kind == tLParen {
			if err := p.advance(); err != nil {
				return err
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			if err := p.expect(tRParen); err != nil {
				return err
			}
			q.Having = append(q.Having, e)
		}
		if len(q.Having) == 0 {
			return p.errf("empty HAVING")
		}
	}
	if p.isKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectKeyword("BY"); err != nil {
			return err
		}
		for {
			key, ok, err := p.tryParseOrderKey()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, key)
		}
		if len(q.OrderBy) == 0 {
			return p.errf("empty ORDER BY")
		}
	}
	for {
		switch {
		case p.isKeyword("LIMIT"):
			if err := p.advance(); err != nil {
				return err
			}
			n, err := p.parseInt()
			if err != nil {
				return err
			}
			q.Limit = n
		case p.isKeyword("OFFSET"):
			if err := p.advance(); err != nil {
				return err
			}
			n, err := p.parseInt()
			if err != nil {
				return err
			}
			q.Offset = n
		default:
			return nil
		}
	}
}

func (p *parser) parseInt() (int, error) {
	l, _ := p.tok.term.(rdf.Literal)
	if l.Datatype != rdf.XSDInteger {
		return 0, p.errf("expected integer")
	}
	n, err := strconv.Atoi(l.Lexical)
	if err != nil || n < 0 {
		return 0, p.errf("bad integer %q", l.Lexical)
	}
	return n, p.advance()
}

func (p *parser) tryParseGroupKey() (Expr, bool, error) {
	switch p.tok.kind {
	case tVar:
		e := ExVar{Name: p.tok.text}
		return e, true, p.advance()
	case tLParen:
		if err := p.advance(); err != nil {
			return nil, false, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, false, err
		}
		return e, true, nil
	default:
		return nil, false, nil
	}
}

func (p *parser) tryParseOrderKey() (OrderKey, bool, error) {
	switch {
	case p.isKeyword("ASC"), p.isKeyword("DESC"):
		desc := p.tok.text == "DESC"
		if err := p.advance(); err != nil {
			return OrderKey{}, false, err
		}
		if err := p.expect(tLParen); err != nil {
			return OrderKey{}, false, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return OrderKey{}, false, err
		}
		if err := p.expect(tRParen); err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Expr: e, Desc: desc}, true, nil
	case p.tok.kind == tVar:
		e := ExVar{Name: p.tok.text}
		return OrderKey{Expr: e}, true, p.advance()
	case p.tok.kind == tKeyword && isAggregateName(p.tok.text):
		e, err := p.parsePrimary()
		if err != nil {
			return OrderKey{}, false, err
		}
		return OrderKey{Expr: e}, true, nil
	default:
		return OrderKey{}, false, nil
	}
}

// parseGroup parses '{' ... '}'.
func (p *parser) parseGroup() (*Group, error) {
	if err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	g := &Group{}
	for p.tok.kind != tRBrace {
		switch {
		case p.isKeyword("FILTER"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseBracketedOrCall()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, e)
		case p.isKeyword("OPTIONAL"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			inner, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, Optional{Inner: inner})
		case p.isKeyword("BIND"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tLParen); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if p.tok.kind != tVar {
				return nil, p.errf("expected variable after AS")
			}
			v := p.tok.text
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tRParen); err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, Bind{Expr: e, Var: v})
		case p.isKeyword("VALUES"):
			vals, err := p.parseValues()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, vals)
		case p.isKeyword("SERVICE"):
			svc, err := p.parseService()
			if err != nil {
				return nil, err
			}
			g.Elems = append(g.Elems, svc)
		case p.tok.kind == tLBrace:
			sub, err := p.parseGroup()
			if err != nil {
				return nil, err
			}
			// A group may be followed by UNION chains.
			elem := GroupElem(SubGroup{Inner: sub})
			for p.isKeyword("UNION") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				right, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				left := &Group{Elems: []GroupElem{elem}}
				elem = Union{Left: left, Right: right}
			}
			g.Elems = append(g.Elems, elem)
		default:
			if err := p.parseTriplesBlock(g); err != nil {
				return nil, err
			}
		}
		// Optional dots between elements.
		for p.tok.kind == tDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return g, p.advance() // consume '}'
}

// parseBracketedOrCall parses FILTER's constraint: either a parenthesized
// expression or a bare builtin call like REGEX(...).
func (p *parser) parseBracketedOrCall() (Expr, error) {
	if p.tok.kind == tLParen {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(tRParen)
	}
	if p.tok.kind == tKeyword {
		return p.parsePrimary()
	}
	return nil, p.errf("expected ( or builtin call after FILTER")
}

func (p *parser) parseValues() (Values, error) {
	if err := p.advance(); err != nil { // consume VALUES
		return Values{}, err
	}
	v := Values{}
	switch p.tok.kind {
	case tVar:
		v.Vars = []string{p.tok.text}
		if err := p.advance(); err != nil {
			return Values{}, err
		}
		if err := p.expect(tLBrace); err != nil {
			return Values{}, err
		}
		for p.tok.kind != tRBrace {
			t, err := p.parseDataTerm()
			if err != nil {
				return Values{}, err
			}
			v.Rows = append(v.Rows, []rdf.Term{t})
		}
		return v, p.advance()
	case tLParen:
		if err := p.advance(); err != nil {
			return Values{}, err
		}
		for p.tok.kind == tVar {
			v.Vars = append(v.Vars, p.tok.text)
			if err := p.advance(); err != nil {
				return Values{}, err
			}
		}
		if err := p.expect(tRParen); err != nil {
			return Values{}, err
		}
		if err := p.expect(tLBrace); err != nil {
			return Values{}, err
		}
		for p.tok.kind == tLParen {
			if err := p.advance(); err != nil {
				return Values{}, err
			}
			var row []rdf.Term
			for p.tok.kind != tRParen {
				t, err := p.parseDataTerm()
				if err != nil {
					return Values{}, err
				}
				row = append(row, t)
			}
			if err := p.advance(); err != nil {
				return Values{}, err
			}
			if len(row) != len(v.Vars) {
				return Values{}, p.errf("VALUES row arity %d != %d", len(row), len(v.Vars))
			}
			v.Rows = append(v.Rows, row)
		}
		if err := p.expect(tRBrace); err != nil {
			return Values{}, err
		}
		return v, nil
	default:
		return Values{}, p.errf("expected variable or ( after VALUES")
	}
}

// parseService parses SERVICE [SILENT] <endpoint> { ... }. The endpoint must
// be a constant IRI (or prefixed name); variable endpoints are not supported.
func (p *parser) parseService() (Service, error) {
	if err := p.advance(); err != nil { // consume SERVICE
		return Service{}, err
	}
	svc := Service{}
	if p.isKeyword("SILENT") {
		svc.Silent = true
		if err := p.advance(); err != nil {
			return Service{}, err
		}
	}
	endpoint, ok := p.tok.term.(rdf.IRI)
	if !ok {
		return Service{}, p.errf("SERVICE requires a constant endpoint IRI")
	}
	svc.Endpoint = string(endpoint)
	if err := p.advance(); err != nil {
		return Service{}, err
	}
	inner, err := p.parseGroup()
	if err != nil {
		return Service{}, err
	}
	svc.Inner = inner
	return svc, nil
}

// parseDataTerm parses a constant term inside VALUES (UNDEF → nil).
func (p *parser) parseDataTerm() (rdf.Term, error) {
	if p.isKeyword("UNDEF") {
		return nil, p.advance()
	}
	n, err := p.parseNode(false)
	if err != nil {
		return nil, err
	}
	if n.IsVar() {
		return nil, p.errf("variables not allowed in VALUES data")
	}
	return n.Term, nil
}

// parseTriplesBlock parses subject predicateObjectList ( ';' ... )*.
func (p *parser) parseTriplesBlock(g *Group) error {
	subj, err := p.parseNode(true)
	if err != nil {
		return err
	}
	for {
		pred, err := p.parseVerb()
		if err != nil {
			return err
		}
		for {
			obj, err := p.parseNode(true)
			if err != nil {
				return err
			}
			g.Elems = append(g.Elems, TriplePattern{S: subj, P: pred, O: obj})
			if p.tok.kind != tComma {
				break
			}
			if err := p.advance(); err != nil {
				return err
			}
		}
		if p.tok.kind != tSemicolon {
			return nil
		}
		for p.tok.kind == tSemicolon {
			if err := p.advance(); err != nil {
				return err
			}
		}
		if p.tok.kind == tDot || p.tok.kind == tRBrace {
			return nil
		}
	}
}

func (p *parser) parseVerb() (Node, error) {
	if p.isKeyword("A") {
		n := Node{Term: rdf.RDFType}
		return n, p.advance()
	}
	n, err := p.parseNode(true)
	if err != nil {
		return Node{}, err
	}
	if !n.IsVar() {
		if _, ok := n.Term.(rdf.IRI); !ok {
			return Node{}, p.errf("predicate must be an IRI or variable")
		}
	}
	return n, nil
}

// parseNode parses one triple-pattern position. allowVar permits variables.
func (p *parser) parseNode(allowVar bool) (Node, error) {
	switch p.tok.kind {
	case tVar:
		if !allowVar || p.groundOnly {
			return Node{}, p.errf("variable not allowed here")
		}
		n := Node{Var: p.tok.text}
		return n, p.advance()
	case tTerm:
		n := Node{Term: p.tok.term}
		return n, p.advance()
	case tAnon:
		if p.groundOnly {
			return Node{}, p.errf("anonymous blank node not allowed here")
		}
		p.bnodeSeq++
		n := Node{Var: fmt.Sprintf("_anon%d", p.bnodeSeq)}
		return n, p.advance()
	case tKeyword:
		return Node{}, p.errf("unexpected keyword %s in pattern", p.tok.text)
	default:
		return Node{}, p.errf("expected term or variable, found %v", p.tok.kind)
	}
}
