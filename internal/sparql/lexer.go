// Package sparql implements a SPARQL 1.1 query engine subset over the lodviz
// triple store: SELECT and ASK forms, basic graph patterns with
// selectivity-ordered joins, FILTER expressions, OPTIONAL, UNION, BIND,
// VALUES, DISTINCT, ORDER BY, LIMIT/OFFSET, and GROUP BY with the standard
// aggregates.
//
// The survey's Web-of-Data systems are all SPARQL-driven (endpoints are the
// access path the "dynamic data" challenge assumes), so the engine is the
// substrate every exploration feature in lodviz queries through.
//
// Execution is one pipeline over dictionary IDs. Everything the engine asks
// of the store is store.Source. A run of triple patterns has one executor
// (idjoin.go), whoever calls it — the query driver's materialized or paged
// solution source (stream.go) and DELETE WHERE (update.go) — and one ordered
// worker pool (parallel.go). Which source answers a query follows from the
// query's shape; Options selects none of it.
//
// Observability: Options.Metrics attaches engine-wide counters (see
// Metrics), and Options.Trace attaches a per-query execution trace — an
// explain.Trace span tree with one span per plan stage recording the
// chosen strategy (id-merge/id-probe/id-cross/paged-scan), rows in/out,
// pages, and wall time. Both are nil-safe and amortized per chunk/page, so the
// uninstrumented path pays nothing; internal/explain documents the trace
// format.
//
// The terminals a query shares with the data formats — IRI references,
// strings and their escapes, language tags, blank node labels, numbers,
// prefixed names, white space and comments — are read by the scanners of
// internal/rdf, the same ones N-Triples, Turtle and the server's URL
// parameters use, so a term spelled as Term.String writes it reads back as
// that term here too. The lexer below keeps what is SPARQL's own: keywords,
// variables, operators, and telling the '<' of an IRI from less-than.
package sparql

import (
	"fmt"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

type tokKind int

const (
	tEOF tokKind = iota
	tKeyword
	tVar       // ?x or $x (text holds bare name)
	tTerm      // <iri>, pfx:local, _:label, "literal"@en, 42, true (term holds it)
	tLBrace    // {
	tRBrace    // }
	tLParen    // (
	tRParen    // )
	tDot       // .
	tSemicolon // ;
	tComma     // ,
	tStar      // *
	tEq        // =
	tNeq       // !=
	tLt        // <
	tGt        // >
	tLe        // <=
	tGe        // >=
	tAndAnd    // &&
	tOrOr      // ||
	tBang      // !
	tPlus      // +
	tMinus     // -
	tSlash     // /
	tAnon      // []
)

func (k tokKind) String() string {
	names := map[tokKind]string{
		tEOF: "end of query", tKeyword: "keyword", tVar: "variable",
		tTerm: "term", tLBrace: "'{'", tRBrace: "'}'",
		tLParen: "'('", tRParen: "')'", tDot: "'.'", tSemicolon: "';'",
		tComma: "','", tStar: "'*'", tEq: "'='", tNeq: "'!='", tLt: "'<'",
		tGt: "'>'", tLe: "'<='", tGe: "'>='", tAndAnd: "'&&'", tOrOr: "'||'",
		tBang: "'!'", tPlus: "'+'", tMinus: "'-'", tSlash: "'/'",
		tAnon: "'[]'",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

type tok struct {
	kind tokKind
	text string
	term rdf.Term
	pos  int
}

type lexer struct {
	src string
	pos int
	// prefixes is the parser's map: prefixed names are expanded as they are
	// read, under the declarations made before them.
	prefixes map[string]string
}

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: offset %d: %s", lx.pos, fmt.Sprintf(format, args...))
}

// term makes the token of a term that starts at lx.pos out of what a scanner
// of internal/rdf returned for it.
func (lx *lexer) term(t rdf.Term, end int, err error) (tok, error) {
	if err != nil {
		return tok{}, fmt.Errorf("sparql: offset %d: %v", end, err)
	}
	tk := tok{kind: tTerm, term: t, pos: lx.pos}
	lx.pos = end
	return tk, nil
}

// prefixLabel reads the "label:" that follows PREFIX.
func (lx *lexer) prefixLabel() (string, error) {
	lx.pos = rdf.SkipSpace(lx.src, lx.pos)
	label, end, err := rdf.ScanPrefixLabel(lx.src, lx.pos)
	if err != nil {
		return "", lx.errf("%v", err)
	}
	lx.pos = end
	return label, nil
}

// keywords recognized case-insensitively.
var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "FILTER": true,
	"OPTIONAL": true, "UNION": true, "PREFIX": true, "BASE": true,
	"DISTINCT": true, "REDUCED": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"GROUP": true, "HAVING": true, "AS": true, "VALUES": true,
	"BIND": true, "UNDEF": true, "A": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"SAMPLE": true, "GROUP_CONCAT": true, "SEPARATOR": true,
	"REGEX": true, "BOUND": true, "STR": true, "LANG": true,
	"DATATYPE": true, "ISIRI": true, "ISURI": true, "ISBLANK": true,
	"ISLITERAL": true, "ISNUMERIC": true, "STRSTARTS": true,
	"STRENDS": true, "CONTAINS": true, "STRLEN": true, "UCASE": true,
	"LCASE": true, "ABS": true, "CEIL": true, "FLOOR": true, "ROUND": true,
	"COALESCE": true, "IF": true, "LANGMATCHES": true, "NOT": true,
	"IN": true, "EXISTS": true, "CONCAT": true, "SUBSTR": true,
	"REPLACE": true, "YEAR": true, "MONTH": true, "DAY": true,
	"SERVICE": true, "SILENT": true,
	"INSERT": true, "DELETE": true, "DATA": true,
}

func (lx *lexer) next() (tok, error) {
	lx.pos = rdf.SkipSpace(lx.src, lx.pos)
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return tok{kind: tEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '{':
		lx.pos++
		return tok{kind: tLBrace, pos: start}, nil
	case '}':
		lx.pos++
		return tok{kind: tRBrace, pos: start}, nil
	case '(':
		lx.pos++
		return tok{kind: tLParen, pos: start}, nil
	case ')':
		lx.pos++
		return tok{kind: tRParen, pos: start}, nil
	case '.':
		if lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]) {
			return lx.term(rdf.ScanNumber(lx.src, start))
		}
		lx.pos++
		return tok{kind: tDot, pos: start}, nil
	case ';':
		lx.pos++
		return tok{kind: tSemicolon, pos: start}, nil
	case ',':
		lx.pos++
		return tok{kind: tComma, pos: start}, nil
	case '*':
		lx.pos++
		return tok{kind: tStar, pos: start}, nil
	case '/':
		lx.pos++
		return tok{kind: tSlash, pos: start}, nil
	case '+':
		if lx.pos+1 < len(lx.src) && (isDigit(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '.') {
			return lx.term(rdf.ScanNumber(lx.src, start))
		}
		lx.pos++
		return tok{kind: tPlus, pos: start}, nil
	case '-':
		if lx.pos+1 < len(lx.src) && (isDigit(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '.') {
			return lx.term(rdf.ScanNumber(lx.src, start))
		}
		lx.pos++
		return tok{kind: tMinus, pos: start}, nil
	case '=':
		lx.pos++
		return tok{kind: tEq, pos: start}, nil
	case '!':
		if strings.HasPrefix(lx.src[lx.pos:], "!=") {
			lx.pos += 2
			return tok{kind: tNeq, pos: start}, nil
		}
		lx.pos++
		return tok{kind: tBang, pos: start}, nil
	case '<':
		// '<' may open an IRI or be a comparison. An IRI reference holds no
		// space and closes with '>': what does not scan as one is the operator.
		if iri, end, err := rdf.ScanIRIRef(lx.src, start); err == nil {
			return lx.term(iri, end, nil)
		}
		if strings.HasPrefix(lx.src[lx.pos:], "<=") {
			lx.pos += 2
			return tok{kind: tLe, pos: start}, nil
		}
		lx.pos++
		return tok{kind: tLt, pos: start}, nil
	case '>':
		if strings.HasPrefix(lx.src[lx.pos:], ">=") {
			lx.pos += 2
			return tok{kind: tGe, pos: start}, nil
		}
		lx.pos++
		return tok{kind: tGt, pos: start}, nil
	case '&':
		if strings.HasPrefix(lx.src[lx.pos:], "&&") {
			lx.pos += 2
			return tok{kind: tAndAnd, pos: start}, nil
		}
		return tok{}, lx.errf("stray '&'")
	case '|':
		if strings.HasPrefix(lx.src[lx.pos:], "||") {
			lx.pos += 2
			return tok{kind: tOrOr, pos: start}, nil
		}
		return tok{}, lx.errf("stray '|'")
	case '?', '$':
		lx.pos++
		begin := lx.pos
		for lx.pos < len(lx.src) && isVarChar(lx.src[lx.pos]) {
			lx.pos++
		}
		if lx.pos == begin {
			return tok{}, lx.errf("empty variable name")
		}
		return tok{kind: tVar, text: lx.src[begin:lx.pos], pos: start}, nil
	case '"', '\'':
		return lx.term(rdf.ScanLiteral(lx.src, start, lx.prefixes))
	case '_':
		return lx.term(rdf.ScanBlankLabel(lx.src, start))
	case '[':
		if j := rdf.SkipSpace(lx.src, lx.pos+1); j < len(lx.src) && lx.src[j] == ']' {
			lx.pos = j + 1
			return tok{kind: tAnon, pos: start}, nil
		}
		return tok{}, lx.errf("blank node property lists are not supported in queries")
	}
	if isDigit(c) {
		return lx.term(rdf.ScanNumber(lx.src, start))
	}
	// Keywords and prefixed names.
	word, end := rdf.ScanName(lx.src, start)
	if word == "" {
		return tok{}, lx.errf("unexpected character %q", c)
	}
	if strings.Contains(word, ":") {
		iri, err := rdf.ExpandName(lx.prefixes, word)
		return lx.term(iri, end, err)
	}
	switch up := strings.ToUpper(word); {
	case up == "TRUE" || up == "FALSE":
		return lx.term(rdf.NewBoolean(up == "TRUE"), end, nil)
	case keywords[up]:
		lx.pos = end
		return tok{kind: tKeyword, text: up, pos: start}, nil
	}
	return tok{}, lx.errf("unknown keyword %q", word)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isVarChar(c byte) bool {
	return isDigit(c) || c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
