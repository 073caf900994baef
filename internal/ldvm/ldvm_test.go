package ldvm

import (
	"context"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/recommend"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/turtle"
	"github.com/lodviz/lodviz/internal/vis"
)

const cities = `
@prefix ex: <http://example.org/> .
ex:athens ex:name "Athens" ; ex:population 664046 ; ex:founded 1834 .
ex:bordeaux ex:name "Bordeaux" ; ex:population 252040 ; ex:founded 1790 .
ex:berlin ex:name "Berlin" ; ex:population 3520031 ; ex:founded 1237 .
`

func cityStore(t *testing.T) *store.Store {
	t.Helper()
	ts, err := turtle.ParseString(cities)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(ts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSPARQLAnalyzer(t *testing.T) {
	st := cityStore(t)
	a := SPARQLAnalyzer{Label: "city-stats", Query: `
PREFIX ex: <http://example.org/>
SELECT ?name ?population ?founded WHERE {
  ?c ex:name ?name ; ex:population ?population ; ex:founded ?founded .
}`}
	abs, err := a.Analyze(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs.Rows) != 3 || len(abs.Columns) != 3 {
		t.Fatalf("abstraction = %d rows × %d cols", len(abs.Rows), len(abs.Columns))
	}
	// Profiles: population and founded numeric, name textual/categorical.
	kinds := map[string]recommend.ColumnKind{}
	for _, p := range abs.Profiles {
		kinds[p.Name] = p.Kind
	}
	if kinds["population"] != recommend.Numeric || kinds["founded"] != recommend.Numeric {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestSPARQLAnalyzerErrors(t *testing.T) {
	st := cityStore(t)
	if _, err := (SPARQLAnalyzer{Label: "bad", Query: "NOT SPARQL"}).Analyze(context.Background(), st); err == nil {
		t.Error("bad query accepted")
	}
	if _, err := (SPARQLAnalyzer{Label: "ask", Query: "ASK { ?s ?p ?o }"}).Analyze(context.Background(), st); err == nil {
		t.Error("ASK accepted as analyzer")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	st := cityStore(t)
	p := &Pipeline{
		Source: st,
		Analyzer: SPARQLAnalyzer{Label: "pop-by-founding", Query: `
PREFIX ex: <http://example.org/>
SELECT ?founded ?population WHERE { ?c ex:population ?population ; ex:founded ?founded . }`},
	}
	spec, svg, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil || spec.PointCount() == 0 {
		t.Fatalf("spec = %+v", spec)
	}
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("view stage did not render SVG")
	}
}

func TestPipelineMissingParts(t *testing.T) {
	if _, _, err := (&Pipeline{}).Run(context.Background()); err == nil {
		t.Error("empty pipeline accepted")
	}
}

func TestPipelineCustomVisualizer(t *testing.T) {
	st := cityStore(t)
	p := &Pipeline{
		Source: st,
		Analyzer: SPARQLAnalyzer{Label: "names", Query: `
PREFIX ex: <http://example.org/>
SELECT ?name WHERE { ?c ex:name ?name }`},
		Visualizer: func(a *Analytical) (*vis.Spec, error) {
			return &vis.Spec{Type: vis.Table, Title: "custom"}, nil
		},
	}
	spec, _, err := p.Run(context.Background())
	if err != nil || spec.Title != "custom" {
		t.Errorf("custom visualizer not used: %v %v", spec, err)
	}
}

func TestCompatible(t *testing.T) {
	abs := &Analytical{Columns: []string{"a", "b"}}
	if !Compatible(abs, recommend.Recommendation{Bindings: map[string]string{"x": "a", "y": "b"}}) {
		t.Error("compatible bindings rejected")
	}
	if Compatible(abs, recommend.Recommendation{Bindings: map[string]string{"x": "zzz"}}) {
		t.Error("incompatible bindings accepted")
	}
	if !Compatible(abs, recommend.Recommendation{}) {
		t.Error("empty bindings should always be compatible")
	}
}

func TestBindSpecBarAggregates(t *testing.T) {
	st := cityStore(t)
	a := SPARQLAnalyzer{Label: "x", Query: `
PREFIX ex: <http://example.org/>
SELECT ?name ?population WHERE { ?c ex:name ?name ; ex:population ?population . }`}
	abs, err := a.Analyze(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BindSpec(abs, recommend.Recommendation{
		Type:     vis.BarChart,
		Bindings: map[string]string{"x": "name", "y": "population"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Series) != 1 || len(spec.Series[0].Points) != 3 {
		t.Fatalf("spec series = %+v", spec.Series)
	}
	for _, p := range spec.Series[0].Points {
		if p.Label == "" || p.Y == 0 {
			t.Errorf("bar point = %+v", p)
		}
	}
}

func TestBindSpecHistogram(t *testing.T) {
	st := cityStore(t)
	abs, err := SPARQLAnalyzer{Label: "x", Query: `
PREFIX ex: <http://example.org/>
SELECT ?population WHERE { ?c ex:population ?population }`}.Analyze(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BindSpec(abs, recommend.Recommendation{
		Type:     vis.Histogram,
		Bindings: map[string]string{"x": "population"},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, p := range spec.Series[0].Points {
		total += p.Y
	}
	if total != 3 {
		t.Errorf("histogram covers %g values, want 3", total)
	}
}
