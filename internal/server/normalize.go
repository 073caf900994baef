package server

import (
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// NormalizeQuery canonicalizes a SPARQL query's insignificant lexical
// variation so textually different spellings of the same query share one
// cache entry: each run of white space and comments between tokens becomes
// a single space, and the result is trimmed. It reads the text as the SPARQL
// lexer does, with the same scanners of internal/rdf:
//   - white space and comments are what rdf.SkipSpace skips;
//   - a '<' opens an IRI only where rdf.ScanIRIRef would read one, and is
//     less-than otherwise;
//   - a string ends where the string scanner ends it, and an unterminated
//     one runs to the end;
//   - elsewhere a backslash escapes the byte after it, as in a prefixed name.
//
// IRIs and strings are copied byte for byte, so two queries that normalize
// equally are the same query — the property the cache key depends on. A
// query that is already normal comes back as it is.
func NormalizeQuery(q string) string {
	var b strings.Builder
	done := 0 // q[:done] is written to b, or is kept as it is while b is empty
	for i := 0; i < len(q); {
		c := q[i]
		switch {
		case c == '<':
			if end := rdf.IRIRefEnd(q, i); end >= 0 {
				i = end
			} else {
				i++ // less-than
			}
		case c == '"' || c == '\'':
			if i = rdf.StringEnd(q, i); i < 0 {
				i = len(q)
			}
		case c == '\\':
			// A prefixed name's escape: the byte after it is the name's
			// (rdf.ScanName), whatever it would start elsewhere.
			i = min(i+2, len(q))
		case c > ' ' && c != '#':
			// Only a control byte, a space or '#' can start what SkipSpace skips.
			i++
		default:
			end := rdf.SkipSpace(q, i)
			between := i > 0 && end < len(q)
			switch {
			case end == i:
				i++
				continue
			case between && end == i+1 && c == ' ':
				i = end
				continue
			}
			if b.Cap() == 0 {
				b.Grow(len(q))
			}
			b.WriteString(q[done:i])
			if between {
				b.WriteByte(' ')
			}
			done, i = end, end
		}
	}
	if done == 0 {
		return q
	}
	b.WriteString(q[done:])
	return b.String()
}
