package keyword

import (
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

// benchStore is 10 000 generated entities: every label reads "Entity <i>
// of class <c>", so "entity", "of" and "class" are in every document and
// most documents tie on their score for each of them.
var benchStore = sync.OnceValue(func() *store.Store {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 10000, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 13,
	}))
	if err != nil {
		panic(err)
	}
	return st
})

// Sinks keep the compiler from dropping the measured calls.
var (
	sinkHits  []Hit
	sinkIndex *Index
)

func BenchmarkSearch(b *testing.B) {
	idx := BuildIndex(benchStore())
	for _, bc := range []struct{ name, query string }{
		{"common_plus_rare", "Entity 7523"},
		{"one_common", "entity"},
		{"several_common", "Entity 5001 of class 2"},
		{"no_match", "zanzibar"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkHits = idx.Search(bc.query, 10)
			}
		})
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	st := benchStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIndex = BuildIndex(st)
	}
}
