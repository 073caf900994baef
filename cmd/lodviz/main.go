// Lodviz is the command-line front door of the framework: load RDF files,
// run SPARQL queries, inspect dataset overviews, search, and browse facets.
//
// Usage:
//
//	lodviz -load data.ttl overview
//	lodviz -load data.nt  query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'
//	lodviz -demo -stream query 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 5'
//	lodviz -demo search Athens
//	lodviz -demo facets
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/lodviz/lodviz"
)

func main() {
	load := flag.String("load", "", "RDF file to load (.ttl or .nt)")
	demo := flag.Bool("demo", false, "use the embedded mini-LOD dataset")
	limit := flag.Int("limit", 20, "maximum rows/hits to print")
	stream := flag.Bool("stream", false, "stream query rows as they are found (progressive delivery; LIMIT stops the scan early)")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd := args[0]

	ds, err := open(*load, *demo)
	if err != nil {
		fail(err)
	}
	ctx := context.Background()

	switch cmd {
	case "overview":
		stats := ds.Stats()
		fmt.Printf("triples: %d\nterms:   %d\n\nclasses:\n", stats.Triples, stats.Terms)
		for _, c := range classes(stats) {
			fmt.Printf("  %-30s %d\n", c.name, c.count)
		}
		fmt.Println("\ntop predicates:")
		for i, p := range stats.Predicates {
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
		for _, h := range ds.Search(strings.Join(args[1:], " "), *limit) {
			fmt.Printf("%.3f  %v\n       %s\n", h.Score, h.Entity, truncate(h.Snippet, 90))
		}
	case "facets":
		s, err := ds.Facets(ctx)
		if err != nil {
			fail(err)
		}
		s.MaxValuesPerFacet = 5
		n, facets, err := s.CountAndFacetsCtx(ctx)
		if err != nil {
			fail(err)
		}
		fmt.Printf("entity set: %d\n", n)
		for i, f := range facets {
			if i == *limit {
				break
			}
			fmt.Printf("%v (%d)\n", f.Predicate, f.Total)
			for _, v := range f.Values {
				fmt.Printf("    %-50v %d\n", truncate(v.Term.String(), 48), v.Count)
			}
		}
	default:
		usage()
		os.Exit(2)
	}
}

type class struct {
	name  string
	count int
}

// classes lists the dataset's classes by instance count, most first, each
// named by its IRI's local name.
func classes(stats lodviz.DatasetStats) []class {
	var out []class
	for cls, n := range stats.Classes {
		name := cls.String()
		if iri, ok := cls.(lodviz.IRI); ok {
			name = iri.LocalName()
		}
		out = append(out, class{name: name, count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].name < out[j].name
	})
	return out
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
	fmt.Fprintln(os.Stderr, `usage: lodviz [-load file | -demo] [-limit n] [-stream] <command>

commands:
  overview               dataset summary (classes, predicates)
  query '<sparql>'       run a SPARQL SELECT/ASK query (-stream prints rows
                         as they are found; LIMIT stops the scan early)
  search <keywords>      keyword search over labels and literals
  facets                 show facet distributions

Without -load (or with -demo) the commands run on the embedded MiniLOD
demonstration dataset. To serve a dataset over HTTP, run lodvizd.`)
}
