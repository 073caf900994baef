package wal

import (
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// BenchmarkDecodePayload decodes one record of 2 000 triples, the size and
// shape of a bulk_ingest batch: an entity IRI, one predicate and a plain
// literal each.
func BenchmarkDecodePayload(b *testing.B) {
	triples := make([]rdf.Triple, 2000)
	for i := range triples {
		triples[i] = rdf.T(
			rdf.IRI(fmt.Sprintf("http://lodviz.example.org/ingest/w0/7/%d", i)),
			"http://lodviz.example.org/prop/ingested",
			rdf.NewLiteral(fmt.Sprintf("w0b7t%d", i)),
		)
	}
	payload := encodePayload(1, OpAdd, triples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePayload(payload); err != nil {
			b.Fatal(err)
		}
	}
}
