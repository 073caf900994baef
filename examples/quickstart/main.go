// Quickstart: load the embedded mini Linked-Data dataset, run a SPARQL
// query, then follow the visual-information-seeking mantra — overview,
// zoom and filter, details on demand — the five-minute tour of the lodviz
// API.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/lodviz/lodviz"
)

func main() {
	ctx := context.Background()

	// 1. Load a dataset. MiniLOD is embedded; LoadTurtle/LoadNTriples load
	// your own data.
	ds := lodviz.MiniLOD()
	fmt.Printf("loaded %d triples\n\n", ds.Len())

	// 2. Query it with SPARQL.
	res, err := ds.QueryCtx(ctx, `
PREFIX ex: <http://lodviz.example.org/mini/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?population WHERE {
  ?city a ex:City ; rdfs:label ?label ; ex:population ?population .
} ORDER BY DESC(?population)`, lodviz.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cities by population:")
	for _, row := range res.Rows {
		fmt.Printf("  %-14s %s\n",
			row["label"].(lodviz.Literal).Lexical,
			row["population"].(lodviz.Literal).Lexical)
	}

	// 3. Explore: overview first ...
	stats := ds.Stats()
	fmt.Printf("\noverview: %d triples, %d terms, %d classes\n",
		stats.Triples, stats.Terms, len(stats.Classes))
	for i, p := range stats.Predicates {
		if i == 5 {
			break
		}
		fmt.Printf("  %-60v %d triples\n", p.Predicate, p.Triples)
	}

	// ... then zoom and filter with facets ...
	sess, err := ds.Facets(ctx)
	if err != nil {
		log.Fatal(err)
	}
	sess.Apply(lodviz.FacetFilter{
		Predicate: "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
		Value:     lodviz.IRI("http://lodviz.example.org/mini/City"),
	})
	n, facets, err := sess.CountAndFacetsCtx(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d cities carry %d facets\n", n, len(facets))

	// ... then details on demand: find an entity, expand its neighbourhood.
	hits := ds.Search("Athens", 1)
	if len(hits) > 0 {
		nb, err := ds.Neighborhood(ctx, hits[0].Entity, lodviz.NeighborhoodOptions{Hops: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%v: %d neighbours, %d edges\n", hits[0].Entity, len(nb.Nodes)-1, len(nb.Edges))
	}
}
