package main

import (
	"context"
	"errors"
	"testing"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/graph"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// exploreFacetStore builds the facet-distribution workload: 20k typed
// entities with four 16-valued categorical properties and no labels — the
// faceted-browsing shape (many entities, low-cardinality facet values) where
// aggregation cost, not term decoding, dominates.
func exploreFacetStore() *store.Store {
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
		panic(err)
	}
	return st
}

// exploreScenarios measures the progressive exploration layer against the
// paths it replaced: the ID-space facet distribution vs the old per-entity
// term-space aggregation (the PR's ≥3x acceptance bar), the progressive
// stats first-estimate latency vs the exact answer (a read of the store's
// maintained tally), and the direct ID-space neighborhood expansion vs
// rebuilding the whole graph per request.
func exploreScenarios() []benchResult {
	st := benchStore()
	ctx := context.Background()

	// Facet distribution over every typed entity. Both paths produce the
	// same facets (reference.go keeps the old algorithm as the differential
	// oracle); the base entity set is computed once outside the timers so
	// each measurement isolates the aggregation itself.
	fst := exploreFacetStore()
	sess := facet.NewSession(fst)
	entities := sess.BaseEntities()
	termMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if fs := facet.ReferenceFacets(fst, entities, nil, 0); len(fs) == 0 {
				b.Fatal("no facets")
			}
		}
	})
	idsMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fs, err := sess.FacetsCtx(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if len(fs) == 0 {
				b.Fatal("no facets")
			}
		}
	})

	// Stats: time to the first CLT-bounded estimate of a walk (stop after
	// the first emitted batch) vs the exact answer, which is a read of the
	// store's maintained tally (the first call builds it; the timed calls
	// after it do not walk).
	statsFirstMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := explore.StreamStats(ctx, st, 0, 1, func(explore.StatsBatch) bool { return false })
			if err != nil && !errors.Is(err, explore.ErrStopped) {
				b.Fatal(err)
			}
		}
	})
	statsExactMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if stats := st.ComputeStats(); stats.Triples == 0 {
				b.Fatal("empty stats")
			}
		}
	})

	// Neighborhood: serving one entity's immediate neighborhood from the
	// permutation indexes (warm) vs the old handler's approach of
	// materializing the entire term graph per request (rebuilt).
	start := gen.Res("entity", 0)
	hoodIDsMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := explore.FindNeighborhood(ctx, st, start, explore.NeighborhoodOptions{Hops: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	hoodRebuiltMS := msPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := graph.FromStore(st)
			id, ok := g.Lookup(start)
			if !ok {
				b.Fatal("start node missing")
			}
			if nodes := g.Neighborhood(id, 1); len(nodes) == 0 {
				b.Fatal("empty neighborhood")
			}
		}
	})

	return []benchResult{
		{Name: "facet_dist_term_ms", Value: termMS, Unit: "ms", Better: "lower"},
		{Name: "facet_dist_ids_ms", Value: idsMS, Unit: "ms", Better: "lower"},
		{Name: "facet_dist_speedup", Value: termMS / idsMS, Unit: "x", Better: "higher", Min: 3},
		{Name: "stats_first_estimate_ms", Value: statsFirstMS, Unit: "ms", Better: "lower"},
		{Name: "stats_exact_ms", Value: statsExactMS, Unit: "ms", Better: "lower"},
		{Name: "neighborhood_ids_ms", Value: hoodIDsMS, Unit: "ms", Better: "lower"},
		{Name: "neighborhood_rebuilt_ms", Value: hoodRebuiltMS, Unit: "ms", Better: "lower"},
		{Name: "neighborhood_speedup", Value: hoodRebuiltMS / hoodIDsMS, Unit: "x", Better: "higher", Min: 3},
	}
}
