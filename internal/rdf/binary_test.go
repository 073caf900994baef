package rdf_test

import (
	"bytes"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// FuzzBinaryTerm holds the binary term codec to its contract: DecodeBinary
// never panics, the bytes it accepts are the bytes AppendBinary writes for
// the term it returns (the WAL's ledger hashes them, so there is one
// spelling), and every term, whatever its strings, round-trips.
func FuzzBinaryTerm(f *testing.F) {
	for _, t := range []rdf.Term{
		rdf.IRI("http://ex/a"),
		rdf.BlankNode("b0"),
		rdf.NewLangLiteral("héllo", "en-gb"),
		rdf.NewInteger(-9),
	} {
		f.Add(rdf.AppendBinary(nil, t), "", "", "")
	}
	f.Add([]byte{}, "x", "http://ex/dt", "")
	f.Add([]byte{byte(rdf.KindIRI), 0x81, 0x00, 'x'}, "", "", "en") // length 1 padded to two bytes
	f.Add([]byte{byte(rdf.KindLiteral), 0x0a, 'x'}, "\x00", "", "\xff")
	f.Add([]byte{7, 0}, "", "", "")
	f.Fuzz(func(t *testing.T, data []byte, a, b, c string) {
		if term, n, err := rdf.DecodeBinary(data); err == nil {
			if re := rdf.AppendBinary(nil, term); !bytes.Equal(re, data[:n]) {
				t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:n], re)
			}
		}
		for _, term := range []rdf.Term{rdf.IRI(a), rdf.BlankNode(a), rdf.Literal{Lexical: a, Datatype: rdf.IRI(b), Lang: c}} {
			enc := rdf.AppendBinary([]byte("prefix"), term)[len("prefix"):]
			got, n, err := rdf.DecodeBinary(append(enc, "tail"...))
			if err != nil || got != term || n != len(enc) {
				t.Fatalf("%#v round-tripped to %#v, %d of %d bytes, %v", term, got, n, len(enc), err)
			}
		}
	})
}
