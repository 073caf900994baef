// Hierarchy: SynopsViz-style multilevel exploration of a large numeric
// property with an incrementally-constructed HETree — overview at a bounded
// number of groups, zoom into a range, adapt the hierarchy to new
// preferences, all without ever materializing the full tree.
package main

import (
	"fmt"
	"log"

	"github.com/lodviz/lodviz"
)

func main() {
	// A synthetic DBpedia-like dataset: 50k entities with a skewed numeric
	// property (num0) — think populations, incomes, counts.
	ds, err := lodviz.GenerateEntities(lodviz.EntityOptions{
		Entities:     50000,
		NumericProps: 1,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d triples\n", ds.Len())

	ex := ds.Explore(lodviz.DefaultPreferences())
	prop := lodviz.GenProp("num0")

	// Overview first: the HETree picks the deepest level that fits the
	// pixel budget. Only the visited part of the tree is materialized.
	spec, err := ex.NumericOverview(prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(lodviz.RenderText(spec))

	// Each hierarchy is a cursor of its own over the property's sorted
	// values, which the session keeps: the same cut again shows its cost.
	tree, err := ex.NumericHierarchy(prop)
	if err != nil {
		log.Fatal(err)
	}
	tree.LevelFor(ex.Preferences().PixelBudget.Width / 4)
	fmt.Printf("materialized %d tree nodes for 50000 values (incremental construction)\n",
		tree.MaterializedNodes())

	// Zoom and filter: drill into the dense low range.
	nodes, err := ex.ZoomNumeric(prop, 0, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nzoom into [0, 50): %d groups\n", len(nodes))
	shown := 0
	for _, n := range nodes {
		if shown == 8 {
			fmt.Printf("  ... and %d more\n", len(nodes)-shown)
			break
		}
		fmt.Printf("  [%8.3f, %8.3f]  count=%-6d mean=%.2f\n", n.Lo, n.Hi, n.Count, n.Mean())
		shown++
	}

	// Adapt the hierarchy to a new task (coarser groups) — the sorted data
	// is reused, only the skeleton is new.
	p := ex.Preferences()
	p.TreeDegree = 8
	p.LeafCapacity = 512
	if err := ex.SetPreferences(p); err != nil {
		log.Fatal(err)
	}
	spec, err = ex.NumericOverview(prop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter adaptation (degree=8, leaf=512):\n%s\n", spec.Title)

	// Details on demand: the items inside one leaf.
	tree, _ = ex.NumericHierarchy(prop)
	frontier := tree.LevelFor(16)
	leaf := frontier[0]
	items := tree.Items(leaf)
	fmt.Printf("first group [%.3f, %.3f] holds %d entities; first three:\n",
		leaf.Lo, leaf.Hi, len(items))
	for i := 0; i < 3 && i < len(items); i++ {
		fmt.Printf("  %v = %.3f\n", items[i].Ref, items[i].Value)
	}
}
