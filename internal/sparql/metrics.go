package sparql

import "github.com/lodviz/lodviz/internal/obs"

// Metrics is the engine's instrumentation surface: a bundle of obs handles
// the evaluator bumps as it runs. All handles (and the bundle itself) are
// nil-safe, so uninstrumented evaluation pays one pointer check per site —
// the NoObs benchmark variant simply leaves Options.Metrics nil.
//
// Counting granularity is deliberately coarse: the hot loops accumulate in
// locals and flush per chunk/page, not per row, so instrumented evaluation
// stays within a few percent of bare (the obs bench scenario gates this).
type Metrics struct {
	// RunsIDJoin counts the triple-pattern runs executed.
	RunsIDJoin *obs.Counter
	// QueriesStreamed / QueriesMaterialized count query evaluations by
	// delivery path.
	QueriesStreamed     *obs.Counter
	QueriesMaterialized *obs.Counter
	// PushdownHits counts evaluations whose LIMIT rode into the scan as an
	// early-termination budget.
	PushdownHits *obs.Counter
	// RowsOut counts solution rows emitted by pattern stages.
	RowsOut *obs.Counter
	// BindingsBuilt counts solutions materialized as a Binding because a
	// stage needed term values by name; the paged source's final rows
	// become result columns without one.
	BindingsBuilt *obs.Counter
	// MatchesScanned counts index entries visited by pattern executors.
	MatchesScanned *obs.Counter
	// PagesScanned counts store pages pulled by the streaming driver.
	PagesScanned *obs.Counter
	// Updates counts SPARQL UPDATE evaluations.
	Updates *obs.Counter
}

// NewMetrics registers the engine's metric families on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		RunsIDJoin:          r.Counter("lodviz_engine_runs_idjoin_total", "Triple-pattern runs executed over dictionary IDs."),
		QueriesStreamed:     r.Counter("lodviz_engine_queries_streamed_total", "Query evaluations served by the paged solution source."),
		QueriesMaterialized: r.Counter("lodviz_engine_queries_materialized_total", "Query evaluations served by the materialized solution source."),
		PushdownHits:        r.Counter("lodviz_engine_limit_pushdown_total", "Evaluations whose LIMIT bounded the scan (early termination)."),
		RowsOut:             r.Counter("lodviz_engine_rows_total", "Solution rows emitted by pattern stages."),
		BindingsBuilt:       r.Counter("lodviz_engine_bindings_total", "Solutions materialized as a Binding because a stage needed term values."),
		MatchesScanned:      r.Counter("lodviz_engine_matches_scanned_total", "Index entries visited by pattern executors."),
		PagesScanned:        r.Counter("lodviz_engine_pages_scanned_total", "Store pages pulled by the streaming driver."),
		Updates:             r.Counter("lodviz_engine_updates_total", "SPARQL UPDATE evaluations."),
	}
}

// addScanned flushes one executor stage's local tally of visited index
// entries.
func (m *Metrics) addScanned(matches int) {
	if m != nil {
		m.MatchesScanned.Add(uint64(matches))
	}
}
