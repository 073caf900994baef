// Package ldvm implements the Linked Data Visualization Model (Brunetti et
// al. — ref [29] in the survey; use cases in [85]): a four-stage pipeline
//
//	Source data → Analytical abstraction → Visualization abstraction → View
//
// with pluggable transformers between stages and compatibility checking, so
// datasets and visualizations can be connected dynamically — the survey's
// §3.2 "abstract visualization process".
package ldvm

import (
	"context"
	"errors"
	"fmt"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/recommend"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/vis"
)

// Analytical is the analytical-abstraction stage: a tabular extract of the
// source dataset (named columns of RDF terms) plus per-column profiles.
type Analytical struct {
	Columns  []string
	Rows     []sparql.Binding
	Profiles []recommend.Profile
}

// Analyzer produces an analytical abstraction from a source dataset.
// Implementations correspond to LDVM's "analyzers" (Payola's term).
type Analyzer interface {
	// Name identifies the analyzer.
	Name() string
	// Analyze extracts the abstraction; ctx bounds the extraction.
	Analyze(ctx context.Context, st *store.Store) (*Analytical, error)
}

// SPARQLAnalyzer extracts the abstraction with a SELECT query.
type SPARQLAnalyzer struct {
	// Label names the analyzer.
	Label string
	// Query is a SPARQL SELECT whose projection becomes the columns.
	Query string
}

// Name implements Analyzer.
func (a SPARQLAnalyzer) Name() string { return a.Label }

// Analyze implements Analyzer.
func (a SPARQLAnalyzer) Analyze(ctx context.Context, st *store.Store) (*Analytical, error) {
	res, err := sparql.ExecCtx(ctx, st, a.Query, sparql.Options{})
	if err != nil {
		return nil, fmt.Errorf("ldvm: analyzer %q: %w", a.Label, err)
	}
	if res.Form != sparql.FormSelect {
		return nil, fmt.Errorf("ldvm: analyzer %q: query must be a SELECT", a.Label)
	}
	out := &Analytical{Columns: res.Vars, Rows: res.Rows}
	out.Profiles = Profile(out)
	return out, nil
}

// Profile computes per-column profiles for an abstraction.
func Profile(a *Analytical) []recommend.Profile {
	profiles := make([]recommend.Profile, len(a.Columns))
	for i, col := range a.Columns {
		vals := make([]rdf.Term, len(a.Rows))
		for j, row := range a.Rows {
			vals[j] = row[col]
		}
		profiles[i] = recommend.ProfileTerms(col, vals)
	}
	return profiles
}

// Pipeline is a configured LDVM pipeline.
type Pipeline struct {
	// Source is the dataset.
	Source *store.Store
	// Analyzer produces the analytical abstraction.
	Analyzer Analyzer
	// Visualizer turns the abstraction into a vis spec; when nil, the
	// top-ranked recommendation is used.
	Visualizer func(*Analytical) (*vis.Spec, error)
}

// ErrNoVisualization is returned when no visualization is applicable.
var ErrNoVisualization = errors.New("ldvm: no applicable visualization")

// Run executes the four stages and returns the final view (an SVG string)
// along with the spec that produced it; ctx bounds the analysis stage.
func (p *Pipeline) Run(ctx context.Context) (*vis.Spec, string, error) {
	if p.Source == nil || p.Analyzer == nil {
		return nil, "", errors.New("ldvm: pipeline needs a source and an analyzer")
	}
	abs, err := p.Analyzer.Analyze(ctx, p.Source)
	if err != nil {
		return nil, "", err
	}
	visualize := p.Visualizer
	if visualize == nil {
		visualize = AutoVisualizer
	}
	spec, err := visualize(abs)
	if err != nil {
		return nil, "", err
	}
	return spec, vis.RenderSVG(spec), nil
}

// AutoVisualizer picks the top recommendation for the abstraction and binds
// the data into a renderable spec — LDVM's "visualization abstraction"
// computed rather than hand-configured.
func AutoVisualizer(a *Analytical) (*vis.Spec, error) {
	recs := recommend.Recommend(a.Profiles)
	if len(recs) == 0 {
		return nil, ErrNoVisualization
	}
	best := recs[0]
	return BindSpec(a, best)
}

// Compatible reports whether a recommendation's bindings can be satisfied by
// the abstraction's columns — LDVM's compatibility check between stages.
func Compatible(a *Analytical, rec recommend.Recommendation) bool {
	cols := map[string]bool{}
	for _, c := range a.Columns {
		cols[c] = true
	}
	for _, col := range rec.Bindings {
		if !cols[col] {
			return false
		}
	}
	return true
}
