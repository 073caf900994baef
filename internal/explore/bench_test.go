package explore

import (
	"context"
	"errors"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

// benchStore loads the BGP-join dataset of the root package's benchmarks:
// 20 000 entities, about 140k triples.
func benchStore(b *testing.B) *store.Store {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 20000, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 13,
	}))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStatsFirstEstimate times a progressive stats walk to its first
// CLT-bounded estimate: the walk stops after the first emitted batch.
func BenchmarkStatsFirstEstimate(b *testing.B) {
	st := benchStore(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := StreamStats(ctx, st, 0, 1, func(StatsBatch) bool { return false })
		if err != nil && !errors.Is(err, ErrStopped) {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsExact times the exact answer beside the first estimate: a
// read of the store's maintained tally. The first call builds the tally,
// outside the timer, so the timed calls do not walk.
func BenchmarkStatsExact(b *testing.B) {
	st := benchStore(b)
	st.ComputeStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := st.ComputeStats(); stats.Triples == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkNeighborhood expands one entity's immediate neighborhood from
// the permutation indexes.
func BenchmarkNeighborhood(b *testing.B) {
	st := benchStore(b)
	ctx := context.Background()
	start := gen.Res("entity", 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindNeighborhood(ctx, st, start, NeighborhoodOptions{Hops: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
