package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// ingestBatch builds n distinct triples over a realistic shape: many
// subjects, few predicates, a mid-sized object vocabulary.
func ingestBatch(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := 0; i < n; i++ {
		out[i] = rdf.T(
			rdf.IRI(fmt.Sprintf("http://e/s%d", i/8)),
			rdf.IRI(fmt.Sprintf("http://e/p%d", i%16)),
			rdf.IRI(fmt.Sprintf("http://e/o%d", i)),
		)
	}
	return out
}

const ingestN = 100_000

// BenchmarkAddBatch is the bulk write path: one lock, one sort, one
// generation bump for the whole batch.
func BenchmarkAddBatch(b *testing.B) {
	triples := ingestBatch(ingestN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		if _, err := st.AddBatch(triples); err != nil {
			b.Fatal(err)
		}
		if st.Len() != ingestN {
			b.Fatalf("Len = %d", st.Len())
		}
	}
	b.ReportMetric(float64(ingestN*b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkAddAll goes through the batch wrapper — it must track
// BenchmarkAddBatch, since AddAll is AddBatch.
func BenchmarkAddAll(b *testing.B) {
	triples := ingestBatch(ingestN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		if err := st.AddAll(triples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ingestN*b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkAddSequential is the old write path — one lock acquisition and
// one delta duplicate-scan per triple — kept as the baseline the batch path
// is measured against.
func BenchmarkAddSequential(b *testing.B) {
	triples := ingestBatch(ingestN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		for _, t := range triples {
			if err := st.Add(t); err != nil {
				b.Fatal(err)
			}
		}
		if st.Len() != ingestN {
			b.Fatalf("Len = %d", st.Len())
		}
	}
	b.ReportMetric(float64(ingestN*b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkLookupTerm resolves terms of a 190 000-term dictionary of
// bulk_ingest's shape — entity IRIs, xsd:double literals and plain literals —
// one lookup an op, in a shuffled order.
func BenchmarkLookupTerm(b *testing.B) {
	terms := make([]rdf.Term, 190_000)
	for i := range terms {
		switch i % 3 {
		case 0:
			terms[i] = rdf.IRI(fmt.Sprintf("http://lodviz.example.org/entity/%d", i))
		case 1:
			terms[i] = rdf.NewTypedLiteral(fmt.Sprintf("%d.%03d", i/1000, i%1000), rdf.XSDDouble)
		default:
			terms[i] = rdf.NewLiteral(fmt.Sprintf("Entity %d of class %d", i, i%6))
		}
	}
	st := New()
	st.mu.Lock()
	for _, t := range terms {
		st.intern(t)
	}
	st.mu.Unlock()
	rand.New(rand.NewSource(1)).Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.lookup(terms[i%len(terms)]); !ok {
			b.Fatal("term not found")
		}
	}
}

// BenchmarkSnapshotWrite serializes a 100k-triple store.
func BenchmarkSnapshotWrite(b *testing.B) {
	st := New()
	if _, err := st.AddBatch(ingestBatch(ingestN)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.WriteSnapshot(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRead restores the 100k-triple store BenchmarkSnapshotWrite
// serializes, from an image in memory.
func BenchmarkSnapshotRead(b *testing.B) {
	st := New()
	if _, err := st.AddBatch(ingestBatch(ingestN)); err != nil {
		b.Fatal(err)
	}
	var image bytes.Buffer
	if err := st.WriteSnapshot(&image); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadSnapshot(bytes.NewReader(image.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != ingestN {
			b.Fatalf("Len = %d", got.Len())
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
