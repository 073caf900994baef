package core

import (
	"context"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/vis"
)

func miniExplorer() *Explorer {
	return NewExplorer(gen.MiniLODStore(), DefaultPreferences())
}

func TestOverview(t *testing.T) {
	e := miniExplorer()
	o := e.Overview()
	if o.Triples == 0 || o.Terms == 0 {
		t.Fatalf("overview = %+v", o)
	}
	if len(o.Classes) == 0 {
		t.Fatal("no classes in overview")
	}
	// City (5 instances) should rank above Country (3).
	var cityIdx, countryIdx int = -1, -1
	for i, c := range o.Classes {
		switch c.Key {
		case "City":
			cityIdx = i
		case "Country":
			countryIdx = i
		}
	}
	if cityIdx < 0 || countryIdx < 0 || cityIdx > countryIdx {
		t.Errorf("class ranking: %v", o.Classes)
	}
}

func TestQueryThroughExplorer(t *testing.T) {
	e := miniExplorer()
	res, err := e.Query(context.Background(), `
PREFIX ex: <http://lodviz.example.org/mini/>
SELECT ?c WHERE { ?c a ex:City }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("cities = %d", len(res.Rows))
	}
}

func TestSearchAndDetails(t *testing.T) {
	e := miniExplorer()
	hits := e.Search("Athens", 5)
	if len(hits) == 0 {
		t.Fatal("no hits for Athens")
	}
	d := e.Details(hits[0].Entity)
	if d.Label != "Athens" {
		t.Errorf("label = %q", d.Label)
	}
	if len(d.Outgoing) == 0 {
		t.Error("no outgoing statements")
	}
	// Athens is the object of livesIn statements.
	if len(d.Incoming) == 0 {
		t.Error("no incoming statements")
	}
}

// A session that writes and then searches must find what it wrote: the
// keyword index follows the store instead of freezing at first use.
func TestSearchSeesSessionWrites(t *testing.T) {
	e := miniExplorer()
	if hits := e.Search("Atlantis", 5); len(hits) != 0 {
		t.Fatalf("hits before the write: %v", hits)
	}
	city := rdf.IRI("http://lodviz.example.org/mini/atlantis")
	label := rdf.T(city, rdf.IRI("http://www.w3.org/2000/01/rdf-schema#label"), rdf.NewLiteral("Atlantis"))
	if err := e.Store().Add(label); err != nil {
		t.Fatal(err)
	}
	if hits := e.Search("Atlantis", 5); len(hits) != 1 || hits[0].Entity != city {
		t.Fatalf("hits after the write = %v, want %v", hits, city)
	}
	e.Store().Delete(label)
	if hits := e.Search("Atlantis", 5); len(hits) != 0 {
		t.Fatalf("hits after the delete: %v", hits)
	}
}

func TestFacetsIntegration(t *testing.T) {
	e := miniExplorer()
	s := e.Facets()
	if s.Count() == 0 {
		t.Fatal("empty facet session")
	}
}

func TestNumericHierarchyAndOverview(t *testing.T) {
	e := miniExplorer()
	prop := rdf.IRI("http://lodviz.example.org/mini/population")
	tree, err := e.NumericHierarchy(prop)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 8 { // 5 cities + 3 countries
		t.Errorf("tree items = %d", tree.Len())
	}
	// Each call hands out a cursor of its own: what one materializes, the
	// next does not see.
	tree.LevelFor(8)
	tree2, _ := e.NumericHierarchy(prop)
	if tree == tree2 || tree2.MaterializedNodes() != 1 {
		t.Errorf("second hierarchy is not a fresh cursor: %d nodes", tree2.MaterializedNodes())
	}
	spec, err := e.NumericOverview(prop)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Type != vis.Histogram || spec.PointCount() == 0 {
		t.Errorf("overview spec = %+v", spec)
	}
}

// A session that writes to a numeric property and then asks for its
// hierarchy, overview or a zoom must see what it wrote: the kept values
// follow the store instead of freezing at first use.
func TestNumericHierarchySeesSessionWrites(t *testing.T) {
	e := miniExplorer()
	prop := rdf.IRI("http://lodviz.example.org/mini/population")
	count := func() (hierarchy, overview, zoom int) {
		t.Helper()
		tree, err := e.NumericHierarchy(prop)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := e.NumericOverview(prop)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range spec.Series[0].Points {
			overview += int(p.Y)
		}
		nodes, err := e.ZoomNumeric(prop, 0, 1e12)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			zoom += n.Count
		}
		return tree.Len(), overview, zoom
	}
	if h, o, z := count(); h != 8 || o != 8 || z != 8 {
		t.Fatalf("before the write: hierarchy %d, overview %d, zoom %d values, want 8 each", h, o, z)
	}
	atlantis := rdf.T(rdf.IRI("http://lodviz.example.org/mini/atlantis"), prop, rdf.NewInteger(12))
	if err := e.Store().Add(atlantis); err != nil {
		t.Fatal(err)
	}
	if h, o, z := count(); h != 9 || o != 9 || z != 9 {
		t.Fatalf("after the write: hierarchy %d, overview %d, zoom %d values, want 9 each", h, o, z)
	}
	// A write elsewhere leaves the property's values alone.
	if err := e.Store().Add(rdf.T(atlantis.S, rdf.RDFSLabel, rdf.NewLiteral("Atlantis"))); err != nil {
		t.Fatal(err)
	}
	if h, o, z := count(); h != 9 || o != 9 || z != 9 {
		t.Fatalf("after an unrelated write: hierarchy %d, overview %d, zoom %d values, want 9 each", h, o, z)
	}
	e.Store().Delete(atlantis)
	if h, o, z := count(); h != 8 || o != 8 || z != 8 {
		t.Fatalf("after the delete: hierarchy %d, overview %d, zoom %d values, want 8 each", h, o, z)
	}
}

func TestNumericHierarchyErrors(t *testing.T) {
	e := miniExplorer()
	if _, err := e.NumericHierarchy("http://lodviz.example.org/mini/nope"); err == nil {
		t.Error("missing property accepted")
	}
}

func TestZoomNumeric(t *testing.T) {
	e := miniExplorer()
	prop := rdf.IRI("http://lodviz.example.org/mini/population")
	nodes, err := e.ZoomNumeric(prop, 0, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, n := range nodes {
		count += n.Count
	}
	if count < 3 { // at least the cities under 1M
		t.Errorf("zoom covered %d items", count)
	}
}

func TestSetPreferencesAdaptsTrees(t *testing.T) {
	e := miniExplorer()
	prop := rdf.IRI("http://lodviz.example.org/mini/population")
	old, err := e.NumericHierarchy(prop)
	if err != nil {
		t.Fatal(err)
	}
	oldLeaves := len(old.LevelFor(100))
	p := e.Preferences()
	p.TreeDegree = 8
	p.LeafCapacity = 2
	if err := e.SetPreferences(p); err != nil {
		t.Fatal(err)
	}
	// The next hierarchy has the new shape: 8 values in leaves of 2, all
	// under one root of degree 8.
	tree, _ := e.NumericHierarchy(prop)
	if tree.MaterializedNodes() != 1 {
		t.Errorf("adapted tree starts with %d nodes, want the bare root", tree.MaterializedNodes())
	}
	if leaves := tree.LevelFor(100); len(leaves) != 4 || tree.Height() != 1 {
		t.Errorf("adapted tree: %d leaves, height %d; want 4 leaves one level down", len(leaves), tree.Height())
	}
	// The one handed out before keeps its shape over the same values.
	if got := len(old.LevelFor(100)); got != oldLeaves || old.Len() != tree.Len() {
		t.Errorf("tree from before the adaptation: %d leaves over %d values, was %d over %d", got, old.Len(), oldLeaves, tree.Len())
	}
	// An invalid preference is refused and not adopted.
	p.TreeDegree = 1
	if err := e.SetPreferences(p); err == nil {
		t.Error("invalid degree accepted")
	}
	if e.Preferences().TreeDegree != 8 {
		t.Errorf("refused preferences were adopted: degree %d", e.Preferences().TreeDegree)
	}
}

func TestReducePointsStrategies(t *testing.T) {
	prefs := DefaultPreferences()
	prefs.PixelBudget = vis.PixelBudget{Width: 100, Height: 100} // budget = 100 points
	st := gen.MiniLODStore()

	var pts []sampling.Point
	for i := 0; i < 5000; i++ {
		pts = append(pts, sampling.Point{X: float64(i % 70), Y: float64(i / 70)})
	}

	for _, tc := range []struct {
		red  Reduction
		want string
	}{
		{Auto, "aggregation"},
		{PreferAggregation, "aggregation"},
		{PreferSampling, "sampling"},
		{NoReduction, "none"},
	} {
		prefs.Reduction = tc.red
		e := NewExplorer(st, prefs)
		out, how := e.ReducePoints(pts)
		if how != tc.want {
			t.Errorf("reduction %v: how = %s, want %s", tc.red, how, tc.want)
		}
		if tc.red != NoReduction && len(out) > 150 {
			t.Errorf("reduction %v: %d points remain", tc.red, len(out))
		}
		if tc.red == NoReduction && len(out) != len(pts) {
			t.Error("NoReduction changed the data")
		}
	}
}

func TestReduceSmallInputPassesThrough(t *testing.T) {
	e := miniExplorer()
	pts := []sampling.Point{{X: 1, Y: 1}}
	out, how := e.ReducePoints(pts)
	if how != "none" || len(out) != 1 {
		t.Errorf("small input reduced: %s %d", how, len(out))
	}
}

func TestRecommendForAndVisualize(t *testing.T) {
	e := miniExplorer()
	q := `
PREFIX ex: <http://lodviz.example.org/mini/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT ?label ?population WHERE { ?c a ex:City ; rdfs:label ?label ; ex:population ?population . }`
	recs, abs, err := e.RecommendFor(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(abs.Rows) != 5 {
		t.Fatalf("recs=%d rows=%d", len(recs), len(abs.Rows))
	}
	spec, svg, err := e.Visualize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if spec.PointCount() == 0 || !strings.HasPrefix(svg, "<svg") {
		t.Error("visualization pipeline produced nothing")
	}
}

func TestZeroPreferencesGetDefaults(t *testing.T) {
	e := NewExplorer(gen.MiniLODStore(), Preferences{})
	if e.Preferences().PixelBudget.Pixels() == 0 {
		t.Error("zero preferences not defaulted")
	}
}
