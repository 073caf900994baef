package lodviz

import (
	"context"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/ntriples"
	"github.com/lodviz/lodviz/internal/rdf"
)

// Integration tests exercising full cross-module paths: parse → store →
// SPARQL → facets and search.

func TestIntegrationNTriplesRoundTripThroughStore(t *testing.T) {
	// Generate → serialize to N-Triples → re-parse → compare query results.
	orig, err := GenerateEntities(EntityOptions{Entities: 100, NumericProps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	serialized := ntriples.Format(orig.Store().Triples())
	re, err := LoadNTriples(strings.NewReader(serialized))
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != orig.Len() {
		t.Fatalf("round trip: %d != %d triples", re.Len(), orig.Len())
	}
	q := `SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }`
	r1, err := orig.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := re.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := r1.Rows[0]["n"].(rdf.Literal).Int()
	n2, _ := r2.Rows[0]["n"].(rdf.Literal).Int()
	if n1 != n2 {
		t.Errorf("count after round trip: %d != %d", n1, n2)
	}
}

func TestIntegrationDynamicUpdatesVisibleEverywhere(t *testing.T) {
	// The survey's "dynamic data" requirement: updates must be visible to
	// SPARQL, facets and search without a reload.
	ds := MiniLOD()

	before, _ := ds.QueryCtx(context.Background(), `PREFIX ex: <http://lodviz.example.org/mini/>
SELECT ?c WHERE { ?c a ex:City }`, QueryOptions{})

	ds.Add(Triple{
		S: IRI("http://lodviz.example.org/mini/heraklion"),
		P: rdf.RDFType,
		O: IRI("http://lodviz.example.org/mini/City"),
	})
	ds.Add(Triple{
		S: IRI("http://lodviz.example.org/mini/heraklion"),
		P: rdf.RDFSLabel,
		O: NewLiteral("Heraklion"),
	})

	after, _ := ds.QueryCtx(context.Background(), `PREFIX ex: <http://lodviz.example.org/mini/>
SELECT ?c WHERE { ?c a ex:City }`, QueryOptions{})
	if len(after.Rows) != len(before.Rows)+1 {
		t.Errorf("SPARQL sees %d cities, want %d", len(after.Rows), len(before.Rows)+1)
	}
	// Facet session started after the update sees it too.
	s, err := ds.Facets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(FacetFilter{Predicate: rdf.RDFType, Value: IRI("http://lodviz.example.org/mini/City")})
	if n, err := s.CountCtx(context.Background()); err != nil || n != 6 {
		t.Errorf("facets see %d cities (err %v), want 6", n, err)
	}
}

func TestIntegrationSPARQLOverParsedOntology(t *testing.T) {
	// SPARQL counts the ontology's axioms as the Turtle declares them.
	ds := MiniLOD()
	res, err := ds.QueryCtx(context.Background(), `
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT (COUNT(?c) AS ?n) WHERE { ?c rdfs:subClassOf ?p }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0]["n"].(rdf.Literal).Int()
	// The mini ontology declares 3 subclass axioms.
	if n != 3 {
		t.Errorf("subclass axioms = %d", n)
	}
}

func TestIntegrationKeywordSearchAfterUpdates(t *testing.T) {
	ds := MiniLOD()
	ds.Add(Triple{
		S: IRI("http://lodviz.example.org/mini/zanzibar"),
		P: rdf.RDFSLabel,
		O: NewLiteral("Zanzibar the spice island"),
	})
	hits := ds.Search("spice island", 5)
	if len(hits) != 1 || hits[0].Entity != IRI("http://lodviz.example.org/mini/zanzibar") {
		t.Errorf("hits = %v", hits)
	}
}
