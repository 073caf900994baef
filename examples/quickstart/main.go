// Quickstart: load the embedded mini Linked-Data dataset, run a SPARQL
// query, get a visualization recommendation, and render the chart — the
// five-minute tour of the lodviz API.
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
	ex := ds.Explore(lodviz.DefaultPreferences())
	o := ex.Overview()
	fmt.Printf("\noverview: %d triples, %d terms, %d classes\n",
		o.Triples, o.Terms, len(o.Classes))
	for _, c := range o.Classes {
		fmt.Printf("  class %-10s %d instances\n", c.Key, c.Count)
	}

	// ... then details on demand.
	hits := ex.Search("Athens", 1)
	if len(hits) > 0 {
		d := ex.Details(hits[0].Entity)
		fmt.Printf("\ndetails for %q: %d outgoing, %d incoming statements\n",
			d.Label, len(d.Outgoing), len(d.Incoming))
	}

	// 4. Ask for a visualization: the recommender profiles the result
	// columns and the LDVM pipeline binds + renders the best match.
	recs, _, err := ex.RecommendFor(ctx, `
PREFIX ex: <http://lodviz.example.org/mini/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?population WHERE { ?c a ex:City ; rdfs:label ?label ; ex:population ?population . }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop visualization recommendations:")
	for i, r := range recs {
		if i == 3 {
			break
		}
		fmt.Printf("  %.2f %-12v %s\n", r.Score, r.Type, r.Reason)
	}

	spec, svg, err := ex.Visualize(ctx, `
PREFIX ex: <http://lodviz.example.org/mini/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?population WHERE { ?c a ex:City ; rdfs:label ?label ; ex:population ?population . }`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchosen: %v (%d marks), SVG is %d bytes\n",
		spec.Type, spec.PointCount(), len(svg))
	fmt.Println()
	fmt.Println(lodviz.RenderText(spec))
}
