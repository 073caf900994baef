package lodviz

import (
	"context"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/ntriples"
	"github.com/lodviz/lodviz/internal/rdf"
)

// Integration tests exercising full cross-module paths: parse → store →
// SPARQL → exploration → reduction → visualization.

func TestIntegrationTurtleToVisualization(t *testing.T) {
	// Turtle in, SVG out, through every pipeline stage.
	ds, err := LoadTurtle(gen.MiniLOD)
	if err != nil {
		t.Fatal(err)
	}
	ex := ds.Explore(DefaultPreferences())
	spec, svg, err := ex.Visualize(context.Background(), `
PREFIX ex: <http://lodviz.example.org/mini/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?population WHERE { ?c a ex:City ; rdfs:label ?label ; ex:population ?population . }`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.PointCount() != 5 {
		t.Errorf("spec points = %d, want 5 cities", spec.PointCount())
	}
	if !strings.Contains(svg, "<svg") {
		t.Error("no SVG output")
	}
}

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
	ex := ds.Explore(DefaultPreferences())

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
	s := ex.Facets()
	s.Apply(FacetFilter{Predicate: rdf.RDFType, Value: IRI("http://lodviz.example.org/mini/City")})
	if s.Count() != 6 {
		t.Errorf("facets see %d cities, want 6", s.Count())
	}
}

func TestIntegrationGraphPipelineOverGeneratedData(t *testing.T) {
	ds, err := GenerateScaleFree(500, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.BuildGraph()
	pos := ForceLayout(g, LayoutOptions{Iterations: 15, Seed: 2})
	// Layout → supernodes → aggregated edges, sizes consistent throughout.
	h := BuildSupernodes(g, 16, 2)
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	v := h.NewView()
	v.ExpandToBudget(25)
	total := 0
	for _, id := range v.Visible {
		total += h.Nodes[id].Size
	}
	if total != g.NumNodes() {
		t.Errorf("view covers %d of %d nodes", total, g.NumNodes())
	}
	if len(pos) != g.NumNodes() {
		t.Errorf("layout %d positions for %d nodes", len(pos), g.NumNodes())
	}
}

func TestIntegrationCubeToChart(t *testing.T) {
	ds, err := GenerateDataCube(6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := ds.LoadCube(ds.Cubes()[0])
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := cube.Totals(GenProp("year"), GenProp("population"))
	if len(keys) != 4 || len(vals) != 4 {
		t.Fatalf("totals = %d keys", len(keys))
	}
	var pts []VisPoint
	for i := range keys {
		pts = append(pts, VisPoint{Label: keys[i].String(), Y: vals[i]})
	}
	spec := &VisSpec{Type: BarChart, Series: []VisSeries{{Points: pts}}}
	if !strings.Contains(RenderSVG(spec), "<rect") {
		t.Error("cube chart did not render bars")
	}
}

func TestIntegrationSPARQLOverParsedOntology(t *testing.T) {
	// Ontology extraction agrees with a SPARQL count over the same store.
	ds := MiniLOD()
	h := ds.ClassHierarchy()
	res, err := ds.QueryCtx(context.Background(), `
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT (COUNT(?c) AS ?n) WHERE { ?c rdfs:subClassOf ?p }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0]["n"].(rdf.Literal).Int()
	// Mini ontology declares 3 subclass axioms; the hierarchy contains the
	// corresponding parent-child links (plus virtual-root attachments).
	if n != 3 {
		t.Errorf("subclass axioms = %d", n)
	}
	linked := 0
	for i := 1; i < len(h.Classes); i++ {
		if h.Classes[i].Parent != 0 {
			linked++
		}
	}
	if linked != 3 {
		t.Errorf("hierarchy has %d non-root links, want 3", linked)
	}
}

func TestIntegrationKeywordSearchAfterUpdates(t *testing.T) {
	ds := MiniLOD()
	ds.Add(Triple{
		S: IRI("http://lodviz.example.org/mini/zanzibar"),
		P: rdf.RDFSLabel,
		O: NewLiteral("Zanzibar the spice island"),
	})
	ex := ds.Explore(DefaultPreferences())
	hits := ex.Search("spice island", 5)
	if len(hits) != 1 || hits[0].Entity != IRI("http://lodviz.example.org/mini/zanzibar") {
		t.Errorf("hits = %v", hits)
	}
}
