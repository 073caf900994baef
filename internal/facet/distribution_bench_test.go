package facet

import (
	"context"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// distributionStore builds the facet-distribution workload: 20k typed
// entities with four 16-valued categorical properties and no labels — the
// faceted-browsing shape (many entities, low-cardinality facet values) where
// aggregation cost, not term decoding, dominates.
func distributionStore(b *testing.B) *store.Store {
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 20000, CategoryProps: 4, Categories: 16, Seed: 13,
	})
	kept := triples[:0]
	for _, t := range triples {
		if t.P != rdf.RDFSLabel {
			kept = append(kept, t)
		}
	}
	st, err := store.Load(kept)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkFacetDistribution times the ID-space facet distribution over
// every typed entity. The base entity set is collected once outside the
// timer, so the measurement isolates the aggregation itself.
func BenchmarkFacetDistribution(b *testing.B) {
	ctx := context.Background()
	sess, err := NewSessionCtx(ctx, distributionStore(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := sess.FacetsCtx(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(fs) == 0 {
			b.Fatal("no facets")
		}
	}
}
