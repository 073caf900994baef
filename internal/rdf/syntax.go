package rdf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The terminals of the Turtle family (N-Triples, Turtle, SPARQL) and of the
// server's term-valued URL parameters, read in one place. Every Scan function
// reads one terminal of s starting at s[i] and returns its value and the
// offset just past it. On an error the offset is where the text stopped
// making sense, for the caller to report as its own kind of position (an
// N-Triples column, a Turtle line, a SPARQL offset). Values are substrings of
// s unless an escape had to be resolved.

// SkipSpace returns the offset of the first byte at or after s[i] that is
// neither white space nor part of a '#' comment.
func SkipSpace(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\r', '\n':
			i++
		case '#':
			nl := strings.IndexByte(s[i:], '\n')
			if nl < 0 {
				return len(s)
			}
			i += nl + 1
		default:
			return i
		}
	}
	return i
}

// notIRI marks what IRIREF excludes: controls, space and <>"{}|^`\.
var notIRI = func() (t [256]bool) {
	for c := 0; c <= ' '; c++ {
		t[c] = true
	}
	for _, c := range "<>\"{}|^`\\" {
		t[c] = true
	}
	return t
}()

// ScanIRIRef reads <iri>, resolving \uXXXX and \UXXXXXXXX. The reference is
// returned as written: resolving it against a base is the caller's business.
func ScanIRIRef(s string, i int) (IRI, int, error) {
	if i >= len(s) || s[i] != '<' {
		return "", i, errors.New("expected '<'")
	}
	j, escaped := iriBodyEnd(s, i+1)
	switch {
	case j == len(s):
		return "", i, errors.New("unterminated IRI")
	case s[j] != '>':
		return "", j, fmt.Errorf("character %q in IRI", s[j])
	}
	body := s[i+1 : j]
	if escaped {
		var at int
		var err error
		if body, at, err = unescape(body, false); err != nil {
			return "", i + 1 + at, err
		}
	}
	return IRI(body), j + 1, nil
}

// IRIRefEnd returns the offset just past the <iri> at s[i], or -1 where
// ScanIRIRef would fail. Short of a malformed escape it builds no error
// value, so it is the cheap way to tell the '<' of an IRI from less-than.
func IRIRefEnd(s string, i int) int {
	if i >= len(s) || s[i] != '<' {
		return -1
	}
	j, escaped := iriBodyEnd(s, i+1)
	if j == len(s) || s[j] != '>' {
		return -1
	}
	if escaped {
		if _, _, err := unescape(s[i+1:j], false); err != nil {
			return -1
		}
	}
	return j + 1
}

// iriBodyEnd returns the offset of the first byte at or after s[i] that an
// IRIREF's body may not hold (the closing '>' when the reference is well
// formed; len(s) when there is none), and whether a backslash came first.
func iriBodyEnd(s string, i int) (int, bool) {
	escaped := false
	for ; i < len(s); i++ {
		if !notIRI[s[i]] {
			continue
		}
		if s[i] != '\\' {
			break
		}
		escaped = true
	}
	return i, escaped
}

// unescape resolves the backslash escapes of s: \uXXXX and \UXXXXXXXX
// anywhere, \t \b \n \r \f \" \' \\ inside strings only. With inString false
// s is the body of an IRIREF, where an escape may not bring in a character
// that could not have been written plainly. An error comes with the offset
// in s of the escape it is about.
func unescape(s string, inString bool) (string, int, error) {
	var b strings.Builder
	b.Grow(len(s))
	for done := 0; ; {
		k := strings.IndexByte(s[done:], '\\')
		if k < 0 {
			b.WriteString(s[done:])
			return b.String(), 0, nil
		}
		b.WriteString(s[done : done+k])
		done += k
		if done+1 >= len(s) {
			return "", done, errors.New("dangling escape")
		}
		c, n := s[done+1], 2
		var r rune
		if c == 'u' || c == 'U' {
			n = 6
			if c == 'U' {
				n = 10
			}
			if done+n > len(s) {
				return "", done, fmt.Errorf("short \\%c escape", c)
			}
			v, err := strconv.ParseUint(s[done+2:done+n], 16, 32)
			if err != nil {
				return "", done, fmt.Errorf("invalid hex digits in \\%c escape", c)
			}
			r = rune(v)
		} else if at := strings.IndexByte(`tbnrf"'\`, c); inString && at >= 0 {
			r = rune("\t\b\n\r\f\"'\\"[at])
		} else {
			return "", done, fmt.Errorf("invalid escape \\%c", c)
		}
		if !inString && r < utf8.RuneSelf && notIRI[r] {
			return "", done, fmt.Errorf("escaped character %q in IRI", r)
		}
		b.WriteRune(r)
		done += n
	}
}

// scanString reads a quoted string — "…" or '…', or the long form that
// triples the quote character and may hold single ones — and returns its
// unescaped body.
func scanString(s string, i int) (string, int, error) {
	start, end, escaped := stringSpan(s, i)
	if end < 0 {
		return "", i, errors.New("unterminated string")
	}
	body := s[start:end]
	if escaped {
		var at int
		var err error
		if body, at, err = unescape(body, true); err != nil {
			return "", start + at, err
		}
	}
	return body, end + start - i, nil
}

// StringEnd returns the offset just past the quoted string at s[i], or -1
// when it is unterminated. It builds nothing: escapes are skipped, not
// resolved or checked.
func StringEnd(s string, i int) int {
	start, end, _ := stringSpan(s, i)
	if end < 0 {
		return -1
	}
	return end + start - i
}

// stringSpan finds the quoted string at s[i]: its body runs from start to
// end, where a closing delimiter as long as the opening one starts (end is
// -1 when there is none), and escaped says whether the body holds a
// backslash.
func stringSpan(s string, i int) (start, end int, escaped bool) {
	quote, delim := s[i], s[i:i+1]
	if i+2 < len(s) && s[i+1] == quote && s[i+2] == quote {
		delim = s[i : i+3]
	}
	start = i + len(delim)
	for j := start; j < len(s); j++ {
		switch s[j] {
		case '\\':
			escaped = true
			j++ // whatever follows is not the closing quote
		case quote:
			if strings.HasPrefix(s[j:], delim) {
				return start, j, escaped
			}
		}
	}
	return start, -1, escaped
}

// ScanLiteral reads a quoted string with its optional @lang or ^^datatype
// tail. The datatype is an <iri> or, through prefixes, a prefixed name.
func ScanLiteral(s string, i int, prefixes map[string]string) (Literal, int, error) {
	lex, end, err := scanString(s, i)
	if err != nil {
		return Literal{}, end, err
	}
	switch j := SkipSpace(s, end); {
	case j < len(s) && s[j] == '@':
		k := j + 1
		for k < len(s) && (isAlnum(s[k]) || s[k] == '-') {
			k++
		}
		if k == j+1 {
			return Literal{}, k, errors.New("empty language tag")
		}
		return NewLangLiteral(lex, s[j+1:k]), k, nil
	case strings.HasPrefix(s[j:], "^^"):
		j = SkipSpace(s, j+2)
		if j < len(s) && s[j] == '<' {
			dt, k, err := ScanIRIRef(s, j)
			if err == nil && dt == "" {
				return Literal{}, j, errors.New("empty datatype IRI")
			}
			return NewTypedLiteral(lex, dt), k, err
		}
		name, k := ScanName(s, j)
		dt, err := ExpandName(prefixes, name)
		if err != nil {
			return Literal{}, j, err
		}
		return NewTypedLiteral(lex, dt), k, nil
	}
	return NewLiteral(lex), end, nil
}

// ScanBlankLabel reads _:label.
func ScanBlankLabel(s string, i int) (BlankNode, int, error) {
	if !strings.HasPrefix(s[i:], "_:") {
		return "", i, errors.New("expected '_:'")
	}
	end := nameEnd(s, i+2, false)
	if end == i+2 {
		return "", end, errors.New("empty blank node label")
	}
	return BlankNode(s[i+2 : end]), end, nil
}

// ScanNumber reads a numeric shorthand as the literal it stands for: an
// xsd:integer, with a fraction an xsd:decimal, with an exponent an
// xsd:double.
func ScanNumber(s string, i int) (Literal, int, error) {
	j := i
	if j < len(s) && (s[j] == '+' || s[j] == '-') {
		j++
	}
	digits := func() int {
		from := j
		for j < len(s) && isDigit(s[j]) {
			j++
		}
		return j - from
	}
	n, dt := digits(), XSDInteger
	if j+1 < len(s) && s[j] == '.' && isDigit(s[j+1]) {
		j++
		n, dt = n+digits(), XSDDecimal
	}
	if n == 0 {
		return Literal{}, j, errors.New("malformed number")
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if digits() == 0 {
			return Literal{}, j, errors.New("malformed exponent")
		}
		dt = XSDDouble
	}
	return Literal{Lexical: s[i:j], Datatype: dt}, j, nil
}

// ScanName reads the word at s[i]: a prefixed name (prefix:local, the local
// part with its \-escapes resolved and its %XX kept) or, when it holds no
// ':', a bare word such as a keyword. An empty word means s[i] starts neither.
func ScanName(s string, i int) (string, int) {
	end := nameEnd(s, i, true)
	word := s[i:end]
	if strings.IndexByte(word, '\\') >= 0 {
		word = strings.ReplaceAll(word, `\`, "")
	}
	return word, end
}

// ScanPrefixLabel reads the "label:" of a prefix declaration, the one place a
// prefixed name stands for itself, and returns the label.
func ScanPrefixLabel(s string, i int) (string, int, error) {
	word, end := ScanName(s, i)
	label, local, ok := strings.Cut(word, ":")
	if !ok || local != "" {
		return "", i, fmt.Errorf("expected prefix label, found %q", word)
	}
	return label, end, nil
}

// ExpandName turns the prefixed name ScanName read into an IRI.
func ExpandName(prefixes map[string]string, name string) (IRI, error) {
	prefix, local, ok := strings.Cut(name, ":")
	if !ok {
		return "", fmt.Errorf("expected IRI, found %q", name)
	}
	ns, ok := prefixes[prefix]
	if !ok {
		return "", fmt.Errorf("undeclared prefix %q", prefix)
	}
	return IRI(ns + local), nil
}

// nameEnd returns where the run of name characters at s[i] ends. A trailing
// '.' is left out: it ends the statement. pname admits what only a prefixed
// name may hold: ':', '%' and a backslash with the character it escapes.
func nameEnd(s string, i int, pname bool) int {
	end := i
	for end < len(s) {
		r, size := rune(s[end]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[end:])
		}
		if pname && r == '\\' && end+1 < len(s) {
			size = 2
		} else if !IsPNChar(r) && !(pname && (r == ':' || r == '%')) {
			break
		}
		end += size
	}
	for end > i && s[end-1] == '.' && (end-2 < i || s[end-2] != '\\') {
		end--
	}
	return end
}

// IsPNChar reports whether r may appear in a prefix, a local name or a blank
// node label: an ASCII letter or digit, '_', '-', '.', or any other letter
// or digit.
func IsPNChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' ||
		r < utf8.RuneSelf && isAlnum(byte(r)) ||
		r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlnum(c byte) bool { return isDigit(c) || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// ScanTerm reads one term in N-Triples form: <iri>, _:label, or "lexical"
// with an optional @lang or ^^<datatype>.
func ScanTerm(s string, i int) (Term, int, error) {
	if i < len(s) {
		switch s[i] {
		case '<':
			iri, end, err := ScanIRIRef(s, i)
			if err == nil && iri == "" {
				return nil, i, errors.New("empty IRI")
			}
			return iri, end, err
		case '_':
			b, end, err := ScanBlankLabel(s, i)
			return b, end, err
		case '"':
			l, end, err := ScanLiteral(s, i, nil)
			return l, end, err
		}
	}
	return nil, i, errors.New(`expected <iri>, _:label or "literal"`)
}

// ParseTerm reads s as exactly one term in N-Triples form, the inverse of
// Term.String.
func ParseTerm(s string) (Term, error) {
	t, end, err := ScanTerm(s, 0)
	if err == nil && end != len(s) {
		err = errors.New("text after the term")
	}
	if err != nil {
		return nil, fmt.Errorf("term %q: %v (offset %d)", s, err, end)
	}
	return t, nil
}
