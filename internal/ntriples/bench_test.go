package ntriples

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkReadAll decodes a body of the size and shape bench/e2e's
// bulk_ingest workload posts to /triples: 2000 statements, each a fresh
// subject, one predicate and a short plain literal.
func BenchmarkReadAll(b *testing.B) {
	var doc strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&doc, "<http://lodviz.example.org/ingest/w0/17/%d> <http://lodviz.example.org/prop/ingested> \"w0b17t%d\" .\n", i, i)
	}
	body := doc.String()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triples, err := ReadAll(strings.NewReader(body))
		if err != nil || len(triples) != 2000 {
			b.Fatalf("ReadAll: %d triples, %v", len(triples), err)
		}
	}
}
