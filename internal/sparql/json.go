package sparql

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"github.com/lodviz/lodviz/internal/rdf"
)

// JSONContentType is the media type of the SPARQL 1.1 Query Results JSON
// Format.
const JSONContentType = "application/sparql-results+json"

// JSONTerm is one RDF term in SPARQL-results JSON encoding.
type JSONTerm struct {
	Type     string `json:"type"`
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// EncodeTerm maps an rdf.Term to the wire representation: IRIs become
// {"type":"uri"}, blank nodes {"type":"bnode"}, literals {"type":"literal"}
// with xml:lang or datatype attached (xsd:string, being the default, is
// omitted per the spec's recommendation).
func EncodeTerm(t rdf.Term) JSONTerm {
	switch v := t.(type) {
	case rdf.IRI:
		return JSONTerm{Type: "uri", Value: string(v)}
	case rdf.BlankNode:
		return JSONTerm{Type: "bnode", Value: string(v)}
	case rdf.Literal:
		jt := JSONTerm{Type: "literal", Value: v.Lexical}
		switch {
		case v.Lang != "":
			jt.Lang = v.Lang
		case v.Datatype != "" && v.Datatype != rdf.XSDString:
			jt.Datatype = string(v.Datatype)
		}
		return jt
	default:
		return JSONTerm{Type: "literal", Value: t.String()}
	}
}

// The appenders below write JSON without reflection, byte for byte as
// encoding/json writes the same values: object keys in its order (struct
// fields as declared, map keys sorted), strings HTML-escaped, floats in its
// 'f'/'e' notation.

// AppendTerm appends t's wire representation (EncodeTerm's JSONTerm as
// encoding/json writes it) to dst.
func AppendTerm(dst []byte, t rdf.Term) []byte {
	jt := EncodeTerm(t)
	dst = append(dst, `{"type":`...)
	dst = AppendJSONString(dst, jt.Type)
	dst = append(dst, `,"value":`...)
	dst = AppendJSONString(dst, jt.Value)
	if jt.Lang != "" {
		dst = append(dst, `,"xml:lang":`...)
		dst = AppendJSONString(dst, jt.Lang)
	}
	if jt.Datatype != "" {
		dst = append(dst, `,"datatype":`...)
		dst = AppendJSONString(dst, jt.Datatype)
	}
	return append(dst, '}')
}

// ColumnOrder is the order AppendColumns writes a row's columns in: the
// names of results.bindings entries, sorted and each once, with the column
// each is read from. Build it once per query.
type ColumnOrder struct {
	names []string
	cols  []int
}

// NewColumnOrder orders the columns of rows laid out by vars (a query's
// projected variables, as Stream.Vars names them): sorted by name, and a
// name listed twice read from its first column.
func NewColumnOrder(vars []string) ColumnOrder {
	names := slices.Clone(vars)
	slices.Sort(names)
	o := ColumnOrder{names: slices.Compact(names)}
	o.cols = make([]int, len(o.names))
	for i, name := range o.names {
		o.cols[i] = slices.Index(vars, name)
	}
	return o
}

// AppendColumns appends one result row as an entry of results.bindings: an
// object of the row's bound columns, in order's names, each mapped to its
// term (nil columns are unbound and left out). It is the one row encoder:
// /sparql bodies (Stream.JSON), Results.JSON and /sparql/stream lines all
// write through it.
func AppendColumns(dst []byte, order ColumnOrder, row []rdf.Term) []byte {
	dst = append(dst, '{')
	first := true
	for i, name := range order.names {
		t := row[order.cols[i]]
		if t == nil {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = AppendJSONString(dst, name)
		dst = append(dst, ':')
		dst = AppendTerm(dst, t)
	}
	return append(dst, '}')
}

// AppendJSONStrings appends ss as a JSON array of strings.
func AppendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string holds as they are: all but
// '"', '\\', the C0 controls and the HTML-special '<', '>' and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it: \" and \\, the C0 controls as \b, \f, \n, \r, \t or \u00XX,
// '<', '>' and '&' as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and
// each byte of invalid UTF-8 as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendJSONFloat appends f as encoding/json writes a float64: 'f' notation,
// or 'e' below 1e-6 and from 1e21 up, with a one-digit negative exponent
// unpadded (1e-7, not 1e-07). JSON has no NaN or infinity: for those it
// returns dst unchanged and an error, as encoding/json fails the value.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n-start >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendResults writes a whole SPARQL 1.1 Query Results JSON document — the
// one place its envelope is written, for Results.JSON and Stream.JSON: the
// head (head.vars when there are any), then for ASK the boolean ans, and
// otherwise results.bindings with every row each hands to its callback. It
// returns the document without the spare capacity appending left behind
// (bodies are kept: the response cache holds them) and the number of rows.
func appendResults(form QueryForm, vars []string, ans bool, each func(func([]rdf.Term) bool) error) ([]byte, int, error) {
	dst := append(make([]byte, 0, 512), `{"head":{`...)
	if len(vars) > 0 {
		dst = AppendJSONStrings(append(dst, `"vars":`...), vars)
	}
	dst = append(dst, '}')
	if form == FormAsk {
		return slices.Clone(append(strconv.AppendBool(append(dst, `,"boolean":`...), ans), '}')), 0, nil
	}
	dst = append(dst, `,"results":{"bindings":[`...)
	order, rows := NewColumnOrder(vars), 0
	err := each(func(row []rdf.Term) bool {
		if rows > 0 {
			dst = append(dst, ',')
		}
		dst = AppendColumns(dst, order, row)
		rows++
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return slices.Clone(append(dst, "]}}"...)), rows, nil
}

// JSON renders the results in the SPARQL 1.1 Query Results JSON Format:
// SELECT results carry head.vars plus results.bindings, ASK results carry a
// boolean. The output is deterministic for a given Results value.
func (r *Results) JSON() ([]byte, error) {
	body, _, err := appendResults(r.Form, r.Vars, r.Ask, func(emit func([]rdf.Term) bool) error {
		cols := make([]rdf.Term, len(r.Vars))
		for _, row := range r.Rows {
			for c, v := range r.Vars {
				cols[c] = row[v]
			}
			emit(cols)
		}
		return nil
	})
	return body, err
}

// JSON evaluates the query and returns its whole results document, as
// Results.JSON writes the rows EvalCtx returns, and the number of rows in
// it. The rows go from the driver into the body as columns: no Binding is
// built for them. Errors match ErrEval.
func (s *Stream) JSON() (body []byte, rows int, err error) {
	ans := false
	if s.q.Form == FormAsk {
		if ans, err = s.Ask(); err != nil {
			return nil, 0, err
		}
	}
	return appendResults(s.q.Form, s.vars, ans, s.RunRows)
}
