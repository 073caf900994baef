package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

// sessionColdQueries are the query shapes bench/e2e's session_cold workload
// sends (sessionGen.sparql and sparqlStream in bench/e2e/requests.go), copied
// here with one set of constants each so the benchmark does not import the
// harness.
var sessionColdQueries = []string{
	// point lookup
	`SELECT ?p ?o WHERE { <http://lodviz.example.org/entity/4711> ?p ?o } LIMIT 100`,
	// 2-pattern join: the label of what an entity links to
	`SELECT ?o ?l WHERE { <http://lodviz.example.org/entity/4711> <http://lodviz.example.org/prop/rel1> ?o . ?o <http://www.w3.org/2000/01/rdf-schema#label> ?l } LIMIT 100`,
	// 3-pattern join with FILTER and ORDER BY
	`SELECT ?s ?v WHERE { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lodviz.example.org/class/2> . ?s <http://lodviz.example.org/prop/cat1> "category-7" . ?s <http://lodviz.example.org/prop/num2> ?v . FILTER(?v > 45) } ORDER BY DESC(?v) LIMIT 100`,
	// GROUP BY count
	`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://lodviz.example.org/prop/cat1> "category-7" . ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://lodviz.example.org/class/2> . ?s <http://lodviz.example.org/prop/cat3> ?c } GROUP BY ?c LIMIT 100`,
	// inverse-link lookup
	`SELECT ?s WHERE { ?s <http://lodviz.example.org/prop/rel0> <http://lodviz.example.org/entity/4711> } LIMIT 100`,
	// the streamed 2-pattern join
	`SELECT ?s ?v WHERE { ?s <http://lodviz.example.org/prop/cat2> "category-11" . ?s <http://lodviz.example.org/prop/num0> ?v }`,
}

// BenchmarkParseQuery times the text-to-AST step of /sparql on what the
// end-to-end benchmark posts: the session_cold query shapes (one op parses
// all six) and an INSERT DATA of the 2000 statements a bulk_ingest batch
// holds.
func BenchmarkParseQuery(b *testing.B) {
	b.Run("session_cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range sessionColdQueries {
				if _, err := Parse(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("insert_data", func(b *testing.B) {
		var body strings.Builder
		body.WriteString("INSERT DATA {\n")
		for i := 0; i < 2000; i++ {
			fmt.Fprintf(&body, "<http://lodviz.example.org/ingest/w0/17/%d> <http://lodviz.example.org/prop/ingested> \"w0b17t%d\" .\n", i, i)
		}
		body.WriteString("}")
		update := body.String()
		b.SetBytes(int64(len(update)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u, err := ParseUpdate(update)
			if err != nil || len(u.Ops[0].(InsertData).Triples) != 2000 {
				b.Fatalf("ParseUpdate: %v", err)
			}
		}
	})
}

// BenchmarkStreamJoinRows streams session_cold's /sparql/stream shape,
// `?s <cat> "v" . ?s <num> ?v` without LIMIT, through Stream.Run: about 600
// rows from 12 000 entities with 20 categories. The rows are final when the
// run ends, so the engine hands them out as columns; Run adds one Binding
// per row on top.
func BenchmarkStreamJoinRows(b *testing.B) {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 12000, NumericProps: 1, CategoryProps: 1, Categories: 20, Seed: 1}))
	if err != nil {
		b.Fatal(err)
	}
	q := fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <%s> "category-7" . ?s <%s> ?v }`, string(gen.Prop("cat0")), string(gen.Prop("num0")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stm, err := PrepareStream(context.Background(), st, q, Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		if err := stm.Run(func(Binding) bool { rows++; return true }); err != nil {
			b.Fatal(err)
		}
		if rows < 500 || rows > 700 {
			b.Fatalf("%d rows, want about 600", rows)
		}
	}
}
