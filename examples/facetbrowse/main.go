// Facetbrowse: Explorator-style session combining keyword search, faceted
// navigation with refining counts, and Visor-style pivoting to a related
// entity set.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/lodviz/lodviz"
)

func main() {
	ds, err := lodviz.GenerateEntities(lodviz.EntityOptions{
		Entities:      2000,
		Classes:       5,
		CategoryProps: 2,
		Categories:    6,
		LinkProps:     1,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Keyword search locates starting points (VisiNav's first concept).
	hits := ds.Search("entity 42", 3)
	fmt.Println("keyword search for \"entity 42\":")
	for _, h := range hits {
		fmt.Printf("  %.3f %v\n", h.Score, h.Entity)
	}

	// Faceted browsing: facets are predicates, values carry counts.
	session, err := ds.Facets(ctx)
	if err != nil {
		log.Fatal(err)
	}
	session.MaxValuesPerFacet = 4
	n, facets, err := session.CountAndFacetsCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbase entity set: %d entities\n", n)
	fmt.Println("facets:")
	for i, f := range facets {
		if i == 3 {
			break
		}
		fmt.Printf("  %v (%d entities)\n", f.Predicate, f.Total)
		for _, v := range f.Values {
			fmt.Printf("    %-40v %d\n", v.Term, v.Count)
		}
	}

	// Apply filters: counts refine conjunctively.
	session.Apply(lodviz.FacetFilter{
		Predicate: lodviz.GenProp("cat0"),
		Value:     lodviz.NewLiteral("category-0"),
	})
	fmt.Printf("\nafter cat0=category-0: %d entities\n", count(ctx, session))
	session.Apply(lodviz.FacetFilter{
		Predicate: lodviz.GenProp("cat1"),
		Value:     lodviz.NewLiteral("category-1"),
	})
	fmt.Printf("after cat1=category-1: %d entities\n", count(ctx, session))

	// Pivot: re-root the session on the entities linked via rel0
	// (Humboldt/Visor's "connect points of interest").
	pivoted, err := session.PivotCtx(ctx, lodviz.GenProp("rel0"))
	if err != nil {
		log.Fatal(err)
	}
	n, facets, err = pivoted.CountAndFacetsCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npivot over rel0: now browsing %d linked entities\n", n)
	for i, f := range facets {
		if i == 2 {
			break
		}
		fmt.Printf("  facet %v covers %d of them\n", f.Predicate, f.Total)
	}
}

func count(ctx context.Context, s *lodviz.FacetSession) int {
	n, err := s.CountCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	return n
}
