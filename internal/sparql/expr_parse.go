package sparql

import (
	"github.com/lodviz/lodviz/internal/rdf"
)

func isAggregateName(kw string) bool {
	switch kw {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT":
		return true
	}
	return false
}

// builtinArity maps supported builtin functions to their min/max arity
// (max -1 = variadic).
var builtinArity = map[string][2]int{
	"BOUND": {1, 1}, "STR": {1, 1}, "LANG": {1, 1}, "DATATYPE": {1, 1},
	"ISIRI": {1, 1}, "ISURI": {1, 1}, "ISBLANK": {1, 1},
	"ISLITERAL": {1, 1}, "ISNUMERIC": {1, 1}, "STRLEN": {1, 1},
	"UCASE": {1, 1}, "LCASE": {1, 1}, "ABS": {1, 1}, "CEIL": {1, 1},
	"FLOOR": {1, 1}, "ROUND": {1, 1}, "YEAR": {1, 1}, "MONTH": {1, 1},
	"DAY": {1, 1}, "REGEX": {2, 3}, "STRSTARTS": {2, 2}, "STRENDS": {2, 2},
	"CONTAINS": {2, 2}, "LANGMATCHES": {2, 2}, "SUBSTR": {2, 3},
	"REPLACE": {3, 3}, "CONCAT": {1, -1}, "COALESCE": {1, -1}, "IF": {3, 3},
}

// parseExpr parses a full expression (|| level).
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tOrOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = ExBinary{Op: "||", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tAndAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = ExBinary{Op: "&&", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.tok.kind {
	case tEq:
		op = "="
	case tNeq:
		op = "!="
	case tLt:
		op = "<"
	case tGt:
		op = ">"
	case tLe:
		op = "<="
	case tGe:
		op = ">="
	default:
		return left, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return ExBinary{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tPlus || p.tok.kind == tMinus {
		op := "+"
		if p.tok.kind == tMinus {
			op = "-"
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ExBinary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tStar || p.tok.kind == tSlash {
		op := "*"
		if p.tok.kind == tSlash {
			op = "/"
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ExBinary{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.tok.kind {
	case tBang:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExUnary{Op: "!", Expr: e}, nil
	case tMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return ExUnary{Op: "-", Expr: e}, nil
	case tPlus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return e, p.expect(tRParen)
	case tVar:
		e := ExVar{Name: p.tok.text}
		return e, p.advance()
	case tTerm:
		e := ExTerm{Term: p.tok.term}
		return e, p.advance()
	case tKeyword:
		kw := p.tok.text
		switch {
		case isAggregateName(kw):
			return p.parseAggregate(kw)
		default:
			if _, ok := builtinArity[kw]; ok {
				return p.parseCall(kw)
			}
			return nil, p.errf("unsupported function %s", kw)
		}
	default:
		return nil, p.errf("expected expression, found %v", p.tok.kind)
	}
}

func (p *parser) parseCall(name string) (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var args []Expr
	for p.tok.kind != tRParen {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		if p.tok.kind == tComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.advance(); err != nil { // ')'
		return nil, err
	}
	ar := builtinArity[name]
	if len(args) < ar[0] || (ar[1] >= 0 && len(args) > ar[1]) {
		return nil, p.errf("%s takes %d..%d arguments, got %d", name, ar[0], ar[1], len(args))
	}
	return ExCall{Name: name, Args: args}, nil
}

func (p *parser) parseAggregate(name string) (Expr, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expect(tLParen); err != nil {
		return nil, err
	}
	agg := ExAggregate{Name: name, Separator: " "}
	if p.isKeyword("DISTINCT") {
		agg.Distinct = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind == tStar {
		if name != "COUNT" {
			return nil, p.errf("* only valid in COUNT")
		}
		agg.Star = true
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		agg.Arg = e
	}
	// GROUP_CONCAT(?x ; SEPARATOR = ", ")
	if p.tok.kind == tSemicolon {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("SEPARATOR"); err != nil {
			return nil, err
		}
		if err := p.expect(tEq); err != nil {
			return nil, err
		}
		sep, ok := p.tok.term.(rdf.Literal)
		if !ok || sep.Datatype != rdf.XSDString {
			return nil, p.errf("SEPARATOR requires a string")
		}
		agg.Separator = sep.Lexical
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return agg, p.expect(tRParen)
}
