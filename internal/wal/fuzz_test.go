package wal

import (
	"bytes"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// FuzzWALDecode drives DecodePayload with arbitrary bytes: it must never
// panic, and any payload it accepts must re-encode to the exact same bytes
// (the ledger hashes payloads, so the codec has to be canonical).
func FuzzWALDecode(f *testing.F) {
	f.Add(encodePayload(1, OpAdd, nil))
	f.Add(encodePayload(7, OpDelete, []rdf.Triple{
		{S: rdf.IRI("http://ex/a"), P: "http://ex/p", O: rdf.IRI("http://ex/b")},
	}))
	f.Add(encodePayload(42, OpAdd, []rdf.Triple{
		{S: rdf.BlankNode("b0"), P: "http://ex/p", O: rdf.NewLangLiteral("héllo", "en-GB")},
		{S: rdf.IRI("http://ex/c"), P: "http://ex/q", O: rdf.NewInteger(-9)},
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte("00000000\x02\x80\x00")) // a triple count of zero padded to two bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodePayload(data)
		if err != nil {
			return
		}
		re := encodePayload(rec.Seq, rec.Op, rec.Triples)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, re)
		}
	})
}
