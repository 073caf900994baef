package lodviz

import (
	"context"
	"strings"
	"testing"
)

func TestLoadTurtleAndQuery(t *testing.T) {
	ds, err := LoadTurtle(`
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
ex:b ex:p ex:c .
`)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d", ds.Len())
	}
	res, err := ds.QueryCtx(context.Background(), `SELECT ?x WHERE { ?x <http://example.org/p> ?y }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestLoadTurtleError(t *testing.T) {
	if _, err := LoadTurtle("not turtle at all <"); err == nil {
		t.Error("bad turtle accepted")
	}
}

func TestLoadNTriples(t *testing.T) {
	ds, err := LoadNTriples(strings.NewReader(
		"<http://e/s> <http://e/p> \"v\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 {
		t.Errorf("Len = %d", ds.Len())
	}
}

func TestMiniLODExploration(t *testing.T) {
	ds := MiniLOD()
	ex := ds.Explore(DefaultPreferences())
	o := ex.Overview()
	if o.Triples != ds.Len() {
		t.Errorf("overview triples = %d, want %d", o.Triples, ds.Len())
	}
	hits := ex.Search("Bordeaux", 3)
	if len(hits) == 0 {
		t.Error("search found nothing")
	}
}

func TestDynamicAdd(t *testing.T) {
	ds := MiniLOD()
	before := ds.Len()
	err := ds.Add(Triple{
		S: IRI("http://lodviz.example.org/mini/sparti"),
		P: IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
		O: IRI("http://lodviz.example.org/mini/City"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != before+1 {
		t.Error("dynamic add failed")
	}
	res, _ := ds.QueryCtx(context.Background(), `
PREFIX ex: <http://lodviz.example.org/mini/>
SELECT ?c WHERE { ?c a ex:City }`, QueryOptions{})
	if len(res.Rows) != 6 {
		t.Errorf("cities after add = %d", len(res.Rows))
	}
}

func TestTablesRender(t *testing.T) {
	t1 := Table1()
	if !strings.Contains(t1, "SynopsViz") || !strings.Contains(t1, "Rhizomer") {
		t.Error("Table1 incomplete")
	}
	t2 := Table2()
	if !strings.Contains(t2, "graphVizdb") || !strings.Contains(t2, "Gephi") {
		t.Error("Table2 incomplete")
	}
	if TableCSV(1) == "" || TableCSV(2) == "" || TableCSV(3) != "" {
		t.Error("TableCSV behavior wrong")
	}
	if !strings.Contains(Observations(), "SynopsViz") {
		t.Error("Observations incomplete")
	}
}

func TestGenerators(t *testing.T) {
	ds, err := GenerateScaleFree(200, 2, 1)
	if err != nil || ds.Len() == 0 {
		t.Fatalf("scale-free: %v", err)
	}
	g := ds.BuildGraph()
	if g.NumNodes() != 200 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	cube, err := GenerateDataCube(5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cubes := cube.Cubes()
	if len(cubes) != 1 {
		t.Fatalf("cubes = %v", cubes)
	}
	c, err := cube.LoadCube(cubes[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Observations) != 15 {
		t.Errorf("observations = %d", len(c.Observations))
	}
	geoDs, err := GenerateGeoPoints(100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := geoDs.GeoPoints()
	if len(pts) != 100 {
		t.Errorf("geo points = %d", len(pts))
	}
	bins := GeoBins(pts, 2)
	if len(bins) == 0 || len(bins) > 100 {
		t.Errorf("geo bins = %d", len(bins))
	}
}

func TestGraphPipeline(t *testing.T) {
	ds, _ := GenerateScaleFree(150, 2, 3)
	g := ds.BuildGraph()
	pos := ForceLayout(g, LayoutOptions{Iterations: 10, Seed: 1})
	if len(pos) != g.NumNodes() {
		t.Fatalf("layout size = %d", len(pos))
	}
	h := BuildSupernodes(g, 8, 1)
	v := h.NewView()
	v.ExpandToBudget(30)
	if len(v.Visible) > 30 {
		t.Errorf("budget exceeded: %d", len(v.Visible))
	}
}

func TestClassHierarchy(t *testing.T) {
	ds := MiniLOD()
	h := ds.ClassHierarchy()
	if h.Depth() < 2 {
		t.Errorf("depth = %d", h.Depth())
	}
}

func TestVisualizeEndToEnd(t *testing.T) {
	ds := MiniLOD()
	ex := ds.Explore(DefaultPreferences())
	spec, svg, err := ex.Visualize(context.Background(), `
PREFIX ex: <http://lodviz.example.org/mini/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?population WHERE { ?c a ex:City ; rdfs:label ?label ; ex:population ?population . }`)
	if err != nil {
		t.Fatal(err)
	}
	if RenderSVG(spec) != svg {
		t.Error("RenderSVG disagrees with pipeline output")
	}
	if RenderText(spec) == "" {
		t.Error("text rendering empty")
	}
}

func TestQueryOptsParallelismEquivalent(t *testing.T) {
	ds, err := GenerateEntities(EntityOptions{Entities: 2000, CategoryProps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT ?e ?c WHERE { ?e a ?c . ?e <http://lodviz.example.org/prop/cat0> ?v . }`
	seq, err := ds.QueryCtx(context.Background(), q, QueryOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ds.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := ds.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, other := range []*Results{par, def} {
		if len(other.Rows) != len(seq.Rows) {
			t.Fatalf("variant %d: %d rows, want %d", i, len(other.Rows), len(seq.Rows))
		}
		for j := range seq.Rows {
			for _, v := range seq.Vars {
				if seq.Rows[j][v] != other.Rows[j][v] {
					t.Fatalf("variant %d: row %d differs", i, j)
				}
			}
		}
	}
}
