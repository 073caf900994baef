package rdf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary spelling of a term, shared by the write-ahead log's records and
// the snapshot's dictionary: a kind byte (TermKind) followed by the term's
// string fields, each a uvarint length and that many bytes. An IRI or a blank
// node has one field; a literal has three: lexical form, datatype and
// language tag. Every uvarint has one spelling, so the bytes a term decodes
// from are the bytes AppendBinary writes for it.

// AppendBinary appends the binary spelling of t, which must not be nil, to
// dst and returns the extended slice.
func AppendBinary(dst []byte, t Term) []byte {
	switch v := t.(type) {
	case IRI:
		return appendField(append(dst, byte(KindIRI)), string(v))
	case BlankNode:
		return appendField(append(dst, byte(KindBlank)), string(v))
	case Literal:
		dst = appendField(append(dst, byte(KindLiteral)), v.Lexical)
		dst = appendField(dst, string(v.Datatype))
		return appendField(dst, v.Lang)
	}
	panic("rdf: AppendBinary of a nil term")
}

func appendField(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// DecodeBinary reads the term spelled at the front of b and returns it with
// the number of bytes it took. It never panics; the error says what is wrong
// and where, counting from b[0].
func DecodeBinary(b []byte) (Term, int, error) {
	if len(b) == 0 {
		return nil, 0, errors.New("truncated term")
	}
	switch kind := TermKind(b[0]); kind {
	case KindIRI, KindBlank:
		s, n, err := decodeField(b, 1)
		if err != nil {
			return nil, 0, err
		}
		if kind == KindIRI {
			return IRI(s), n, nil
		}
		return BlankNode(s), n, nil
	case KindLiteral:
		lex, n, err := decodeField(b, 1)
		if err != nil {
			return nil, 0, err
		}
		dt, n, err := decodeField(b, n)
		if err != nil {
			return nil, 0, err
		}
		lang, n, err := decodeField(b, n)
		if err != nil {
			return nil, 0, err
		}
		return Literal{Lexical: lex, Datatype: IRI(dt), Lang: lang}, n, nil
	}
	return nil, 0, fmt.Errorf("unknown term kind %d", b[0])
}

// decodeField reads the length-prefixed string at b[off:] and returns it with
// the offset just past it.
func decodeField(b []byte, off int) (string, int, error) {
	l, n := Uvarint(b[off:])
	if n == 0 {
		return "", 0, fmt.Errorf("bad uvarint at offset %d", off)
	}
	off += n
	if l > uint64(len(b)-off) {
		return "", 0, fmt.Errorf("string length %d at offset %d exceeds the input", l, off)
	}
	end := off + int(l)
	return string(b[off:end]), end, nil
}

// Uvarint reads the uvarint at the front of b and returns it with the number
// of bytes it took. n is 0 where b does not start with a uvarint in its one
// spelling: it is cut short, overflows 64 bits, or is padded with a final
// zero byte, which binary.AppendUvarint never writes.
func Uvarint(b []byte) (v uint64, n int) {
	v, n = binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}
