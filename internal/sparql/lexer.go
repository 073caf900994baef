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
// (idjoin.go), whoever calls it — the materializing pipeline (query.go), the
// early-termination paths that page the first pattern's scan (stream.go:
// LIMIT pushdown, top-k, ASK, Stream.Run) and DELETE WHERE (update.go) — and
// one ordered worker pool (parallel.go). Which path answers a query follows
// from the query's shape; Options selects none of it.
//
// Observability: Options.Metrics attaches engine-wide counters (see
// Metrics), and Options.Trace attaches a per-query execution trace — an
// explain.Trace span tree with one span per plan stage recording the
// chosen strategy (id-merge/id-probe/id-cross/paged-scan), rows in/out,
// pages, and wall time. Both are nil-safe and amortized per chunk/page, so the
// uninstrumented path pays nothing; internal/explain documents the trace
// format.
package sparql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tEOF tokKind = iota
	tKeyword
	tVar       // ?x or $x (text holds bare name)
	tIRI       // <...> (text holds IRI)
	tPName     // prefixed name pfx:local
	tString    // string literal body
	tLangTag   // @en
	tDTMarker  // ^^
	tInteger   // 42
	tDecimal   // 4.2
	tDouble    // 4e2
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
	tBlank     // _:label
	tAnon      // []
)

func (k tokKind) String() string {
	names := map[tokKind]string{
		tEOF: "end of query", tKeyword: "keyword", tVar: "variable",
		tIRI: "IRI", tPName: "prefixed name", tString: "string",
		tLangTag: "language tag", tDTMarker: "'^^'", tInteger: "integer",
		tDecimal: "decimal", tDouble: "double", tLBrace: "'{'", tRBrace: "'}'",
		tLParen: "'('", tRParen: "')'", tDot: "'.'", tSemicolon: "';'",
		tComma: "','", tStar: "'*'", tEq: "'='", tNeq: "'!='", tLt: "'<'",
		tGt: "'>'", tLe: "'<='", tGe: "'>='", tAndAnd: "'&&'", tOrOr: "'||'",
		tBang: "'!'", tPlus: "'+'", tMinus: "'-'", tSlash: "'/'",
		tBlank: "blank node", tAnon: "'[]'",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

type tok struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: offset %d: %s", lx.pos, fmt.Sprintf(format, args...))
}

func (lx *lexer) skip() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		if c == '#' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			continue
		}
		return
	}
}

// keywords recognized case-insensitively.
var keywords = map[string]bool{
	"SELECT": true, "ASK": true, "WHERE": true, "FILTER": true,
	"OPTIONAL": true, "UNION": true, "PREFIX": true, "BASE": true,
	"DISTINCT": true, "REDUCED": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"GROUP": true, "HAVING": true, "AS": true, "VALUES": true,
	"BIND": true, "UNDEF": true, "A": true, "TRUE": true, "FALSE": true,
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
	lx.skip()
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
			return lx.lexNumber()
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
			return lx.lexNumber()
		}
		lx.pos++
		return tok{kind: tPlus, pos: start}, nil
	case '-':
		if lx.pos+1 < len(lx.src) && (isDigit(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '.') {
			return lx.lexNumber()
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
		// '<' may open an IRI or be a comparison. An IRI ref contains no
		// spaces and closes with '>': decide by scanning.
		if iriEnd := lx.iriRefEnd(); iriEnd > 0 {
			raw := lx.src[lx.pos+1 : iriEnd]
			lx.pos = iriEnd + 1
			return tok{kind: tIRI, text: raw, pos: start}, nil
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
		return lx.lexString(c)
	case '@':
		lx.pos++
		begin := lx.pos
		for lx.pos < len(lx.src) && (isAlpha(lx.src[lx.pos]) || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if lx.pos == begin {
			return tok{}, lx.errf("empty language tag")
		}
		return tok{kind: tLangTag, text: lx.src[begin:lx.pos], pos: start}, nil
	case '^':
		if strings.HasPrefix(lx.src[lx.pos:], "^^") {
			lx.pos += 2
			return tok{kind: tDTMarker, pos: start}, nil
		}
		return tok{}, lx.errf("stray '^'")
	case '_':
		if strings.HasPrefix(lx.src[lx.pos:], "_:") {
			lx.pos += 2
			begin := lx.pos
			for lx.pos < len(lx.src) && isVarChar(lx.src[lx.pos]) {
				lx.pos++
			}
			return tok{kind: tBlank, text: lx.src[begin:lx.pos], pos: start}, nil
		}
		return tok{}, lx.errf("stray '_'")
	case '[':
		j := lx.pos + 1
		for j < len(lx.src) && (lx.src[j] == ' ' || lx.src[j] == '\t') {
			j++
		}
		if j < len(lx.src) && lx.src[j] == ']' {
			lx.pos = j + 1
			return tok{kind: tAnon, pos: start}, nil
		}
		return tok{}, lx.errf("blank node property lists are not supported in queries")
	}
	if isDigit(c) {
		return lx.lexNumber()
	}
	return lx.lexWord()
}

// iriRefEnd returns the index of the closing '>' if the text at pos opens a
// well-formed IRI reference, else -1.
func (lx *lexer) iriRefEnd() int {
	for i := lx.pos + 1; i < len(lx.src); i++ {
		switch lx.src[i] {
		case '>':
			return i
		case ' ', '\t', '\n', '\r', '<', '"', '{', '}':
			return -1
		}
	}
	return -1
}

func (lx *lexer) lexString(quote byte) (tok, error) {
	start := lx.pos
	lx.pos++
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			return tok{}, lx.errf("unterminated string")
		}
		c := lx.src[lx.pos]
		if c == quote {
			lx.pos++
			return tok{kind: tString, text: b.String(), pos: start}, nil
		}
		if c == '\\' {
			if lx.pos+1 >= len(lx.src) {
				return tok{}, lx.errf("dangling escape")
			}
			switch e := lx.src[lx.pos+1]; e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '"', '\'', '\\':
				b.WriteByte(e)
			default:
				return tok{}, lx.errf("invalid escape \\%c", e)
			}
			lx.pos += 2
			continue
		}
		b.WriteByte(c)
		lx.pos++
	}
}

func (lx *lexer) lexNumber() (tok, error) {
	start := lx.pos
	if c := lx.src[lx.pos]; c == '+' || c == '-' {
		lx.pos++
	}
	digits := 0
	for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
		lx.pos++
		digits++
	}
	kind := tInteger
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		if lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]) {
			kind = tDecimal
			lx.pos++
			for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
				lx.pos++
				digits++
			}
		}
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		kind = tDouble
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		expDigits := 0
		for lx.pos < len(lx.src) && isDigit(lx.src[lx.pos]) {
			lx.pos++
			expDigits++
		}
		if expDigits == 0 {
			return tok{}, lx.errf("malformed exponent")
		}
	}
	if digits == 0 {
		return tok{}, lx.errf("malformed number")
	}
	return tok{kind: kind, text: lx.src[start:lx.pos], pos: start}, nil
}

// lexWord scans keywords and prefixed names.
func (lx *lexer) lexWord() (tok, error) {
	start := lx.pos
	for lx.pos < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !isPNRune(r) && r != ':' {
			break
		}
		lx.pos += size
	}
	// Names may not end with '.' (it terminates the pattern).
	for lx.pos > start && lx.src[lx.pos-1] == '.' {
		lx.pos--
	}
	word := lx.src[start:lx.pos]
	if word == "" {
		return tok{}, lx.errf("unexpected character %q", lx.src[start])
	}
	if strings.Contains(word, ":") {
		return tok{kind: tPName, text: word, pos: start}, nil
	}
	up := strings.ToUpper(word)
	if keywords[up] {
		return tok{kind: tKeyword, text: up, pos: start}, nil
	}
	return tok{}, lx.errf("unknown keyword %q", word)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
func isVarChar(c byte) bool {
	return isAlpha(c) || isDigit(c) || c == '_'
}
func isPNRune(r rune) bool {
	return r == '_' || r == '-' || r == '.' ||
		r >= '0' && r <= '9' ||
		r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
		r > 127 && (unicode.IsLetter(r) || unicode.IsDigit(r))
}
