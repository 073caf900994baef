// Package core ties the lodviz substrates into the exploration engine the
// survey calls for: a session that follows the visual-information-seeking
// mantra — overview first, zoom and filter, then details on demand
// (Shneiderman, ref [118]) — over datasets of any size, with an explicit
// resource budget and a per-user preference model (the survey's "variety of
// tasks & users" requirement).
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/lodviz/lodviz/internal/aggregate"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/keyword"
	"github.com/lodviz/lodviz/internal/ldvm"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/recommend"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/vis"
)

// Reduction selects the data-reduction strategy when a result exceeds the
// budget.
type Reduction int

// Reduction strategies.
const (
	// Auto picks aggregation for overview tasks and sampling for detail
	// preservation (outliers), following the survey's technique taxonomy.
	Auto Reduction = iota
	// PreferSampling always samples.
	PreferSampling
	// PreferAggregation always bins/aggregates.
	PreferAggregation
	// NoReduction disables reduction (use only for small data).
	NoReduction
)

// Preferences is the per-user/task configuration (Section 2's
// personalization requirement).
type Preferences struct {
	// PixelBudget bounds how many visual marks a single view may carry.
	PixelBudget vis.PixelBudget
	// Reduction picks the reduction strategy.
	Reduction Reduction
	// TreeDegree and LeafCapacity configure hierarchical exploration.
	TreeDegree   int
	LeafCapacity int
	// Seed makes sampling reproducible.
	Seed int64
}

// DefaultPreferences returns the survey's laptop-scale defaults: a
// one-megapixel display budget, and the hierarchy shape the /hetree
// endpoint serves (hetree.DefaultOptions).
func DefaultPreferences() Preferences {
	tree := hetree.DefaultOptions()
	return Preferences{
		PixelBudget:  vis.PixelBudget{Width: 1280, Height: 800},
		TreeDegree:   tree.Degree,
		LeafCapacity: tree.LeafCapacity,
		Seed:         1,
	}
}

// HierarchyOptions is the shape of the numeric hierarchies a session with
// these preferences explores: hetree.DefaultOptions at the preferred degree
// and leaf capacity.
func (p Preferences) HierarchyOptions() hetree.Options {
	o := hetree.DefaultOptions()
	o.Degree, o.LeafCapacity = p.TreeDegree, p.LeafCapacity
	return o
}

// Explorer is a stateful exploration session over one dataset.
type Explorer struct {
	st    *store.Store
	prefs Preferences

	// Lazy indexes, both kept current with the session's own writes.
	kw    *keyword.Lazy
	bases *hetree.Bases
}

// NewExplorer starts a session with the given preferences.
func NewExplorer(st *store.Store, prefs Preferences) *Explorer {
	if prefs.PixelBudget.Pixels() == 0 {
		prefs = DefaultPreferences()
	}
	return &Explorer{st: st, prefs: prefs, kw: keyword.NewLazy(st), bases: hetree.NewBases(st, st)}
}

// Store exposes the underlying triple store.
func (e *Explorer) Store() *store.Store { return e.st }

// Preferences returns the session preferences.
func (e *Explorer) Preferences() Preferences { return e.prefs }

// SetPreferences adapts the session to new preferences. Nothing is rebuilt:
// a hierarchy is a cursor over its property's sorted values, which are kept,
// and the next NumericHierarchy starts one of the new shape over them.
func (e *Explorer) SetPreferences(p Preferences) error {
	if err := hetree.CheckShape(p.TreeDegree, p.LeafCapacity); err != nil {
		return fmt.Errorf("core: adapt hierarchy: %w", err)
	}
	e.prefs = p
	return nil
}

// Overview summarizes the dataset: size, class distribution and the most
// informative predicates — the entry screen of a WoD browser.
type Overview struct {
	Triples    int
	Terms      int
	Classes    []aggregate.GroupResult
	Predicates []store.PredicateStat
}

// Overview computes the dataset overview.
func (e *Explorer) Overview() Overview {
	stats := e.st.ComputeStats()
	var classes []aggregate.GroupResult
	for cls, n := range stats.Classes {
		label := cls.String()
		if iri, ok := cls.(rdf.IRI); ok {
			label = iri.LocalName()
		}
		classes = append(classes, aggregate.GroupResult{Key: label, Count: n})
	}
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].Count != classes[j].Count {
			return classes[i].Count > classes[j].Count
		}
		return classes[i].Key < classes[j].Key
	})
	preds := stats.Predicates
	if len(preds) > 25 {
		preds = preds[:25]
	}
	return Overview{
		Triples:    stats.Triples,
		Terms:      stats.Terms,
		Classes:    classes,
		Predicates: preds,
	}
}

// Query runs a SPARQL query against the dataset under ctx.
func (e *Explorer) Query(ctx context.Context, q string) (*sparql.Results, error) {
	return sparql.ExecCtx(ctx, e.st, q, sparql.Options{})
}

// Search finds entities by keyword (index built on first use, then kept
// current with the session's own writes).
func (e *Explorer) Search(query string, limit int) []keyword.Hit {
	return e.kw.Search(query, limit)
}

// Facets starts a faceted-browsing session over the dataset.
func (e *Explorer) Facets() *facet.Session {
	return facet.NewSession(e.st)
}

// Details returns everything known about an entity (outgoing and incoming
// statements) — the "details on demand" stage.
type Details struct {
	Entity   rdf.Term
	Label    string
	Outgoing []rdf.Triple
	Incoming []rdf.Triple
}

// Details fetches an entity's full description.
func (e *Explorer) Details(entity rdf.Term) Details {
	d := Details{Entity: entity}
	if iri, ok := entity.(rdf.IRI); ok {
		d.Label = iri.LocalName()
	}
	e.st.ForEach(store.Pattern{S: entity}, func(t rdf.Triple) bool {
		if t.P == rdf.RDFSLabel {
			if l, ok := t.O.(rdf.Literal); ok {
				d.Label = l.Lexical
			}
		}
		d.Outgoing = append(d.Outgoing, t)
		return true
	})
	e.st.ForEach(store.Pattern{O: entity}, func(t rdf.Triple) bool {
		d.Incoming = append(d.Incoming, t)
		return true
	})
	return d
}

// NumericHierarchy returns a fresh, incrementally constructed HETree over a
// numeric or temporal property as the store holds it now — the
// SynopsViz-style multilevel view. The property's sorted values are
// collected on first use and kept across calls until a write touches the
// property; the tree itself is the caller's own.
func (e *Explorer) NumericHierarchy(prop rdf.IRI) (*hetree.Tree, error) {
	//lint:allow ctxflow compat wrapper: NumericHierarchyCtx is the cancellable form
	return e.NumericHierarchyCtx(context.Background(), prop)
}

// NumericHierarchyCtx is NumericHierarchy with cancellation: the underlying
// ID-space collection honors ctx while grouping large predicate runs.
func (e *Explorer) NumericHierarchyCtx(ctx context.Context, prop rdf.IRI) (*hetree.Tree, error) {
	tree, err := e.bases.Tree(ctx, prop, e.prefs.HierarchyOptions())
	if errors.Is(err, hetree.ErrNoValues) {
		return nil, fmt.Errorf("core: property %s has no numeric or temporal values", prop)
	}
	if err != nil {
		return nil, fmt.Errorf("core: build hierarchy for %s: %w", prop, err)
	}
	return tree, nil
}

// NumericOverview renders a property's distribution at the deepest
// hierarchy level that fits the pixel budget.
func (e *Explorer) NumericOverview(prop rdf.IRI) (*vis.Spec, error) {
	tree, err := e.NumericHierarchy(prop)
	if err != nil {
		return nil, err
	}
	// A bar per node; budget by display width.
	budget := e.prefs.PixelBudget.Width / 4
	if budget < 1 {
		budget = 1
	}
	nodes := tree.LevelFor(budget)
	var pts []vis.DataPoint
	for _, n := range nodes {
		pts = append(pts, vis.DataPoint{
			Label: fmt.Sprintf("[%.4g,%.4g]", n.Lo, n.Hi),
			X:     (n.Lo + n.Hi) / 2,
			Y:     float64(n.Count),
		})
	}
	return &vis.Spec{
		Type:   vis.Histogram,
		Title:  fmt.Sprintf("%s — %d objects in %d groups", prop.LocalName(), tree.Len(), len(nodes)),
		Series: []vis.Series{{Name: prop.LocalName(), Points: pts}},
	}, nil
}

// ZoomNumeric drills into a value range of a property, again within budget.
func (e *Explorer) ZoomNumeric(prop rdf.IRI, lo, hi float64) ([]*hetree.Node, error) {
	tree, err := e.NumericHierarchy(prop)
	if err != nil {
		return nil, err
	}
	budget := e.prefs.PixelBudget.Width / 4
	return tree.RangeQuery(lo, hi, budget), nil
}

// ReducePoints reduces a 2-D point set to the pixel budget using the
// session's reduction strategy, reporting what was done.
func (e *Explorer) ReducePoints(pts []sampling.Point) ([]sampling.Point, string) {
	budget := e.prefs.PixelBudget.Pixels() / 100 // marks are ~100 px incl. spacing
	if budget < 1 {
		budget = 1
	}
	if len(pts) <= budget || e.prefs.Reduction == NoReduction {
		return pts, "none"
	}
	switch e.prefs.Reduction {
	case PreferAggregation:
		return e.binPoints(pts, budget), "aggregation"
	case PreferSampling:
		out, err := sampling.VisualizationAware(pts, budget,
			e.prefs.PixelBudget.Width, e.prefs.PixelBudget.Height, e.prefs.Seed)
		if err != nil {
			return pts, "none"
		}
		return out, "sampling"
	default:
		// Auto: aggregation preserves density structure for overviews.
		return e.binPoints(pts, budget), "aggregation"
	}
}

func (e *Explorer) binPoints(pts []sampling.Point, budget int) []sampling.Point {
	side := 1
	for side*side < budget {
		side++
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	grid, err := aggregate.Bin2D(xs, ys, side, side)
	if err != nil {
		return pts
	}
	var out []sampling.Point
	for _, c := range grid.NonEmpty() {
		out = append(out, sampling.Point{
			X: grid.MinX + (float64(c.XBin)+0.5)*(grid.MaxX-grid.MinX)/float64(side),
			Y: grid.MinY + (float64(c.YBin)+0.5)*(grid.MaxY-grid.MinY)/float64(side),
		})
	}
	return out
}

// RecommendFor profiles the results of a SPARQL query and ranks
// visualizations for them — the LDVM pipeline driven from a query.
func (e *Explorer) RecommendFor(ctx context.Context, query string) ([]recommend.Recommendation, *ldvm.Analytical, error) {
	abs, err := ldvm.SPARQLAnalyzer{Label: "adhoc", Query: query}.Analyze(ctx, e.st)
	if err != nil {
		return nil, nil, err
	}
	return recommend.Recommend(abs.Profiles), abs, nil
}

// Visualize runs the full LDVM pipeline for a query: analyze, recommend,
// bind, render.
func (e *Explorer) Visualize(ctx context.Context, query string) (*vis.Spec, string, error) {
	p := &ldvm.Pipeline{
		Source:   e.st,
		Analyzer: ldvm.SPARQLAnalyzer{Label: "adhoc", Query: query},
	}
	return p.Run(ctx)
}
