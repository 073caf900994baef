package store_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// entityStore loads a 110k-triple entity dataset: 10 000 typed, labelled
// entities with eleven statements each.
func entityStore(b *testing.B) *store.Store {
	b.Helper()
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 10000, NumericProps: 3, TemporalProps: 1, CategoryProps: 3, LinkProps: 2, Seed: 13,
	}))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkComputeStats reads the dataset summary once the store's tally
// exists. The first call builds it, outside the timer; tally-B is the live
// heap that build added.
func BenchmarkComputeStats(b *testing.B) {
	st := entityStore(b)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st.ComputeStats()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := st.ComputeStats(); s.Triples != st.Len() {
			b.Fatalf("stats count %d triples, store holds %d", s.Triples, st.Len())
		}
	}
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)), "tally-B")
}

// BenchmarkScanIDs takes the rdf:type run (10 000 entries) sorted by subject,
// as a facet session's base collection does, from a clean store and from one
// with one rdf:type statement tombstoned. The last run's live entries are
// counted by iterating it.
func BenchmarkScanIDs(b *testing.B) {
	for _, state := range []string{"clean", "tombstoned"} {
		b.Run(state, func(b *testing.B) {
			st := entityStore(b)
			pid, _ := st.LookupTermID(rdf.RDFType)
			want := 10000
			if state == "tombstoned" {
				if n, err := st.DeleteBatch(st.Match(store.Pattern{P: rdf.RDFType})[:1]); err != nil || n != 1 {
					b.Fatalf("DeleteBatch = %d, %v", n, err)
				}
				want--
			}
			b.ReportAllocs()
			b.ResetTimer()
			var run store.IDRun
			for i := 0; i < b.N; i++ {
				var ok bool
				if run, ok = st.ScanIDs(0, pid, 0, store.PosS); !ok {
					b.Fatal("ScanIDs declined")
				}
			}
			b.StopTimer()
			n := 0
			run.ForEach(func(store.IDTriple) bool { n++; return true })
			if n != want {
				b.Fatalf("the run holds %d live entries, want %d", n, want)
			}
		})
	}
}

// BenchmarkAddDeleteBatch2000 inserts and deletes one bulk_ingest-sized
// batch, with the statistics tally not built (writes pay nothing for it)
// and built (writes count into it).
func BenchmarkAddDeleteBatch2000(b *testing.B) {
	batch := make([]rdf.Triple, 2000)
	for i := range batch {
		batch[i] = rdf.T(gen.Res("ingest", i/4), gen.Prop(fmt.Sprintf("num%d", i%4)), rdf.NewInteger(int64(i)))
	}
	for _, built := range []bool{false, true} {
		b.Run(fmt.Sprintf("tally=%t", built), func(b *testing.B) {
			st := entityStore(b)
			if built {
				st.ComputeStats()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := st.AddBatch(batch); err != nil || n != len(batch) {
					b.Fatalf("AddBatch = %d, %v", n, err)
				}
				if n, err := st.DeleteBatch(batch); err != nil || n != len(batch) {
					b.Fatalf("DeleteBatch = %d, %v", n, err)
				}
			}
		})
	}
}
