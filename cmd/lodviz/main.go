// Lodviz is the command-line front door of the framework: load RDF files,
// run SPARQL queries, inspect dataset overviews, search, and emit
// visualizations as SVG or terminal text.
//
// Usage:
//
//	lodviz -load data.ttl overview
//	lodviz -load data.nt  query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'
//	lodviz -demo search Athens
//	lodviz -demo visualize 'SELECT ?label ?population WHERE { ... }' -svg out.svg
//	lodviz -demo facets
//	lodviz tables
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/lodviz/lodviz"
)

func main() {
	load := flag.String("load", "", "RDF file to load (.ttl or .nt)")
	demo := flag.Bool("demo", false, "use the embedded mini-LOD dataset")
	svgOut := flag.String("svg", "", "write visualization SVG to this file")
	limit := flag.Int("limit", 20, "maximum rows/hits to print")
	stream := flag.Bool("stream", false, "stream query rows as they are found (progressive delivery; LIMIT stops the scan early)")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd := args[0]

	if cmd == "tables" {
		fmt.Println(lodviz.Table1())
		fmt.Println(lodviz.Table2())
		fmt.Println(lodviz.Observations())
		return
	}

	ds, err := open(*load, *demo)
	if err != nil {
		fail(err)
	}
	ex := ds.Explore(lodviz.DefaultPreferences())
	ctx := context.Background()

	switch cmd {
	case "overview":
		o := ex.Overview()
		fmt.Printf("triples: %d\nterms:   %d\n\nclasses:\n", o.Triples, o.Terms)
		for _, c := range o.Classes {
			fmt.Printf("  %-30s %d\n", c.Key, c.Count)
		}
		fmt.Println("\ntop predicates:")
		for i, p := range o.Predicates {
			if i == *limit {
				break
			}
			fmt.Printf("  %-60v %d triples, %d subjects\n", p.Predicate, p.Triples, p.DistinctSubjects)
		}
	case "query":
		if len(args) < 2 {
			fail(fmt.Errorf("query: missing SPARQL string"))
		}
		if *stream {
			streamQuery(ds, args[1], *limit)
			return
		}
		res, err := ds.QueryCtx(ctx, args[1], lodviz.QueryOptions{})
		if err != nil {
			fail(err)
		}
		if res.Form == 1 { // ASK
			fmt.Println(res.Ask)
			return
		}
		fmt.Println(strings.Join(res.Vars, "\t"))
		for i, row := range res.Rows {
			if i == *limit {
				fmt.Printf("... (%d more rows)\n", len(res.Rows)-i)
				break
			}
			cells := make([]string, len(res.Vars))
			for j, v := range res.Vars {
				if t, ok := row[v]; ok {
					cells[j] = t.String()
				}
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
	case "search":
		if len(args) < 2 {
			fail(fmt.Errorf("search: missing keywords"))
		}
		for _, h := range ex.Search(strings.Join(args[1:], " "), *limit) {
			fmt.Printf("%.3f  %v\n       %s\n", h.Score, h.Entity, truncate(h.Snippet, 90))
		}
	case "facets":
		s := ex.Facets()
		s.MaxValuesPerFacet = 5
		fmt.Printf("entity set: %d\n", s.Count())
		for i, f := range s.Facets() {
			if i == *limit {
				break
			}
			fmt.Printf("%v (%d)\n", f.Predicate, f.Total)
			for _, v := range f.Values {
				fmt.Printf("    %-50v %d\n", truncate(v.Term.String(), 48), v.Count)
			}
		}
	case "visualize":
		if len(args) < 2 {
			fail(fmt.Errorf("visualize: missing SPARQL string"))
		}
		spec, svg, err := ex.Visualize(ctx, args[1])
		if err != nil {
			fail(err)
		}
		fmt.Printf("visualization: %v (%d marks)\n\n", spec.Type, spec.PointCount())
		fmt.Println(lodviz.RenderText(spec))
		if *svgOut != "" {
			if err := os.WriteFile(*svgOut, []byte(svg), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("SVG written to %s\n", *svgOut)
		}
	default:
		usage()
		os.Exit(2)
	}
}

// streamQuery prints rows as the engine finds them: a plain LIMIT/OFFSET
// query shows its first row while the scan is still running and stops
// scanning once -limit rows are printed, instead of materializing the full
// result set first.
func streamQuery(ds *lodviz.Dataset, query string, limit int) {
	headerDone := false
	res, err := ds.QueryStream(context.Background(), query, lodviz.QueryOptions{}, func(vars []string, row lodviz.Binding) bool {
		if limit <= 0 {
			return false
		}
		if !headerDone {
			fmt.Println(strings.Join(vars, "\t"))
			headerDone = true
		}
		cells := make([]string, len(vars))
		for j, v := range vars {
			if t, ok := row[v]; ok {
				cells[j] = t.String()
			}
		}
		fmt.Println(strings.Join(cells, "\t"))
		limit--
		return limit > 0
	})
	if err != nil {
		fail(err)
	}
	if res.Vars == nil { // ASK
		fmt.Println(res.Ask)
		return
	}
	if !headerDone {
		fmt.Println(strings.Join(res.Vars, "\t"))
	}
}

func open(path string, demo bool) (*lodviz.Dataset, error) {
	if demo || path == "" {
		return lodviz.MiniLOD(), nil
	}
	switch filepath.Ext(path) {
	case ".nt", ".ntriples":
		// Stream straight off the file: no whole-file slice in memory.
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return lodviz.LoadNTriples(f)
	default:
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return lodviz.LoadTurtle(string(data))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lodviz:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lodviz [-load file | -demo] <command>

commands:
  overview               dataset summary (classes, predicates)
  query '<sparql>'       run a SPARQL SELECT/ASK query (-stream prints rows
                         as they are found; LIMIT stops the scan early)
  search <keywords>      keyword search over labels and literals
  facets                 show facet distributions
  visualize '<sparql>'   recommend + render a visualization (-svg out.svg)
  tables                 regenerate the survey's Tables 1 and 2`)
}
