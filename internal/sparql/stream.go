package sparql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/store"
)

// errScanShifted reports that the store compacted its indexes between two
// pages of a streamed scan, invalidating the positional cursor. Callers
// restart through retryShifted (and ultimately fall back to the
// snapshot-consistent materializing pipeline); an incremental stream that
// has already delivered rows surfaces it to the consumer.
var errScanShifted = errors.New("sparql: store layout changed during streamed scan")

// Streaming query evaluation. The materializing pipeline in query.go
// computes every solution, sorts and deduplicates the full set, and only
// then slices LIMIT/OFFSET — so an exploration query asking for the first
// screenful pays the full scan. The paths in this file make top-k the fast
// path instead:
//
//   - streamDirect: plain SELECT ... LIMIT k (+OFFSET) without ORDER BY,
//     DISTINCT, or grouping stops scanning after offset+k solutions, and
//     ASK stops at the first. Work scales with k, not with dataset size.
//   - streamTopK: ORDER BY ... LIMIT k keeps a bounded heap of the
//     offset+k best solutions while scanning, replacing the full
//     sort-then-slice: O(k) memory and O(n log k) comparisons.
//
// Both produce byte-identical rows in identical order to the materializing
// pipeline (the differential tests compare them), and both are the same
// driver, streamSolutions: it pages the first pattern's scan in ID space and
// hands each page, still as ID rows, to the one pattern executor of
// idjoin.go. Queries whose modifiers need the whole solution set — DISTINCT,
// GROUP BY, aggregates — and shapes whose evaluation is not row-local
// (UNION, SERVICE) stay on the materializing path.

// streamMode selects the evaluation strategy for a parsed query.
type streamMode int

const (
	// streamNone: the query must materialize every solution first.
	streamNone streamMode = iota
	// streamDirect: complete solutions can be delivered — and evaluation
	// stopped — as they are found.
	streamDirect
	// streamTopK: ORDER BY needs every solution, but LIMIT bounds how many
	// survive; a bounded heap replaces the full sort.
	streamTopK
)

// planStream classifies a query. streamDirect/streamTopK are only returned
// when the streamed rows are provably identical, in order, to the
// materializing pipeline's output, AND the driver can actually suspend a
// scan — a top-level triple pattern (after unwrapping redundant nesting).
// Without one, streaming would be a full evaluation wearing a streaming
// hat, so such queries honestly report the materializing path.
func planStream(q *Query) streamMode {
	if q.Where == nil {
		return streamNone
	}
	g := unwrapGroup(q.Where)
	if !streamableElems(g.Elems) || !streamablePrefix(g.Elems) {
		return streamNone
	}
	if q.Form == FormAsk {
		return streamDirect
	}
	if q.Distinct || len(q.GroupBy) > 0 || len(q.Having) > 0 || projectionHasAggregates(q) {
		return streamNone
	}
	if len(q.OrderBy) == 0 {
		return streamDirect
	}
	if q.Limit >= 0 {
		return streamTopK
	}
	return streamNone
}

// unwrapGroup peels redundant nesting: a group consisting solely of one
// subgroup evaluates identically to that subgroup with both levels'
// filters applied (filters are row-local and both apply after the
// patterns), so the streaming driver sees through the wrapper to the
// scannable pattern inside — `{ { ?s ?p ?o } } LIMIT k` short-circuits
// like its un-nested form.
func unwrapGroup(g *Group) *Group {
	for len(g.Elems) == 1 {
		sub, ok := g.Elems[0].(SubGroup)
		if !ok {
			break
		}
		inner := sub.Inner
		if len(g.Filters) > 0 {
			merged := append(append([]Expr{}, inner.Filters...), g.Filters...)
			inner = &Group{Elems: inner.Elems, Filters: merged}
		}
		g = inner
	}
	return g
}

// streamablePrefix checks that the driver has a scan to suspend and that
// everything scheduled before it is a genuinely tiny seed (BIND/VALUES): a
// SubGroup or OPTIONAL ahead of the first pattern would be fully evaluated
// — an unbounded scan of its own — before the first row could flow, which
// would betray the work-scales-with-k promise while still reporting
// incremental delivery. (Reordering never moves patterns across non-pattern
// elements, so the pre-reorder prefix seen here is the one the driver gets.)
func streamablePrefix(elems []GroupElem) bool {
	for _, el := range elems {
		switch el.(type) {
		case TriplePattern:
			return true
		case Bind, Values:
		default:
			return false
		}
	}
	return false
}

// addBudget returns offset+limit as an early-termination row budget, or -1
// (no budget: rely on emit-side enforcement) when the sum overflows.
func addBudget(offset, limit int) int {
	if limit > math.MaxInt-offset {
		return -1
	}
	return offset + limit
}

// streamableElems reports whether an element sequence is row-local: the
// output attributable to one input binding is contiguous, in input order,
// and independent of which other bindings share its evaluation batch. Only
// then does batched tail evaluation preserve the materializing row order.
// UNION is not row-local (it emits all left-branch rows before any
// right-branch row); SERVICE is remote and batch-shaped. Both are fine
// inside OPTIONAL's inner group, which is evaluated per binding anyway —
// except SERVICE, which is excluded everywhere so a budgeted scan never
// controls how often a remote endpoint is called.
func streamableElems(elems []GroupElem) bool {
	for _, el := range elems {
		switch el := el.(type) {
		case TriplePattern, Bind, Values:
		case Optional:
			if HasService(el.Inner) {
				return false
			}
		case SubGroup:
			if !streamableElems(el.Inner.Elems) {
				return false
			}
		default: // Union, Service, future elements
			return false
		}
	}
	return true
}

// Batch sizing for the streaming driver: the first page is tiny so the
// first rows reach the consumer after a handful of scan matches
// (time-to-first-row is the whole point), later pages double so long scans
// amortize per-page lock round-trips and grow past parallelThreshold,
// handing the tail pipeline to the worker pool.
const (
	streamBatchInit = 4
	streamBatchMax  = 8192
)

// streamSolutions evaluates g, delivering every complete solution (after
// the group's filters) to emit in exactly the order the materializing
// pipeline produces, until emit returns false. budget >= 0 is the caller's
// expected row need; it rides into the executor as a probe bound but emit
// alone decides when delivery stops. budget < 0 streams the full solution
// set.
//
// The driver pages the suspended scan of the group's first pattern: each
// ForEachIDPage call does nothing under the store's read lock but
// unify-and-collect ID rows, and the page is then joined through the rest
// of its pattern run, decoded, put through whatever follows the run and
// handed to emit with the lock released — a nested scan inside the outer
// one would deadlock behind a queued writer, and a slow network consumer
// must not stall the store's writers. The flip side is isolation: a write
// landing between two pages is visible to the remainder of the scan (the
// materializing path keeps its one-snapshot-per-scan semantics).
func (e *engine) streamSolutions(g *Group, budget int, emit func(Binding) bool) error {
	g = unwrapGroup(g)
	elems := g.Elems
	if !e.noReorder {
		elems = e.reorderTriplePatterns(elems)
		e.tracePlan(elems)
	}
	// planStream guarantees a top-level pattern; the prefix before it
	// (BIND/VALUES seeds only, per streamablePrefix) is tiny.
	first := slices.IndexFunc(elems, func(el GroupElem) bool { _, ok := el.(TriplePattern); return ok })
	input, err := e.evalElems(elems[:first], nil, []Binding{{}})
	if err != nil {
		return err
	}
	var run []TriplePattern
	for _, el := range elems[first:] {
		tp, ok := el.(TriplePattern)
		if !ok {
			break
		}
		run = append(run, tp)
	}
	rest := elems[first+len(run):]
	// When nothing follows the run its output rows are final solutions: the
	// budget then bounds the scan itself (a lone pattern) or the probes of
	// the run's last pattern.
	final := len(rest) == 0 && len(g.Filters) == 0
	direct := final && len(run) == 1

	r, seeds := e.newPatternRun(run, input)
	ps, ok := r.positions(run[0])
	if !ok {
		seeds = idRows{} // a constant of the scanned pattern occurs nowhere
	}

	// Driver accounting: pages pulled and scan matches produced, flushed
	// once on the way out (every return path) to metrics and — as one
	// "paged-scan" pattern span — to the trace.
	var pages, scanned int
	var driverStart time.Time
	if e.trace != nil {
		driverStart = time.Now()
	}
	defer func() {
		if e.met != nil {
			e.met.PagesScanned.Add(uint64(pages))
			e.met.MatchesScanned.Add(uint64(scanned))
			e.met.RowsOut.Add(uint64(scanned))
		}
		if e.trace != nil {
			sp := e.trace.Add(e.exec, "pattern")
			sp.Set(patternString(run[0]), "paged-scan", len(input), scanned, driverStart)
			sp.SetPages(pages)
		}
	}()

	emitted := 0
	epoch := e.st.LayoutEpoch()
	batchCap := streamBatchInit
	scratch := make([]store.ID, seeds.stride)
	for i := 0; i < seeds.n(); i++ {
		seed := seeds.row(i)
		ms, mp, mo := maskFor(ps, seed)
		pos := 0
		for done := false; !done; {
			if err := e.cancelled(); err != nil {
				return err
			}
			// Page size: the geometrically growing batch, clamped in
			// direct mode to the rows still owed (each match there is a
			// final solution, so scanning further is pure waste).
			pageMax := batchCap
			if direct && budget >= 0 {
				pageMax = min(pageMax, remainingBudget(budget, emitted))
				if pageMax == 0 {
					return nil
				}
			}
			rows := idRows{stride: seeds.stride}
			pos, done = e.st.ForEachIDPage(ms, mp, mo, pos, pageMax, func(m store.IDTriple) bool {
				copy(scratch, seed)
				if idUnify(ps, scratch, m) {
					rows.ids = append(rows.ids, scratch...)
					rows.parents = append(rows.parents, seeds.parents[i])
				}
				return true
			})
			pages++
			scanned += rows.n()
			// A compaction between pages reshuffles positions: the page
			// just read may duplicate or skip triples, so discard it and
			// let the caller restart or abort.
			if e.st.LayoutEpoch() != epoch {
				return errScanShifted
			}
			// Lock released: join, decode and deliver this page's matches.
			limit := -1
			if final {
				limit = remainingBudget(budget, emitted)
			}
			if rows, err = r.extend(rows, run[1:], limit); err != nil {
				return err
			}
			sols := r.decode(rows)
			if !final && len(sols) > 0 {
				if sols, err = e.evalElems(rest, g.Filters, sols); err != nil {
					return err
				}
			}
			for _, sol := range sols {
				emitted++
				if !emit(sol) {
					return nil
				}
			}
			if batchCap < streamBatchMax {
				batchCap *= 2
			}
		}
	}
	return nil
}

func remainingBudget(budget, emitted int) int {
	if budget < 0 {
		return -1
	}
	return max(budget-emitted, 0)
}

// topkEntry is one candidate in the bounded ORDER BY heap: the solution,
// its precomputed sort-key terms, and its arrival sequence (the stable-sort
// tiebreaker).
type topkEntry struct {
	sol  Binding
	keys []rdf.Term
	seq  int
}

// before orders entries exactly as the materializing path's stable sort
// does: key by key (unbound before bound per rdf.Compare, DESC negated),
// arrival order breaking ties — a strict order, seq being unique.
func (a topkEntry) before(b topkEntry, keys []OrderKey) bool {
	for k := range keys {
		c := rdf.Compare(a.keys[k], b.keys[k])
		if keys[k].Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}

// streamTopK streams the full solution set through a k-bounded selection
// and returns, in final order, exactly the k solutions the materializing
// path's stable sort would rank first — but memory is O(k) and sorting
// costs O(n log k) instead of O(n log n).
func (e *engine) streamTopK(q *Query, k int) ([]Binding, error) {
	top := sampling.NewTopK(k, func(a, b topkEntry) bool { return a.before(b, q.OrderBy) })
	seq := 0
	err := e.streamSolutions(q.Where, -1, func(s Binding) bool {
		keys := make([]rdf.Term, len(q.OrderBy))
		for i, key := range q.OrderBy {
			if t, err := evalExpr(key.Expr, s); err == nil {
				keys[i] = t
			}
		}
		top.Offer(topkEntry{sol: s, keys: keys, seq: seq})
		seq++
		return true
	})
	if err != nil {
		return nil, err
	}
	kept := top.Sorted()
	sols := make([]Binding, len(kept))
	for i, ent := range kept {
		sols[i] = ent.sol
	}
	return sols, nil
}

// runDirect streams the OFFSET/LIMIT-windowed projected rows of a
// streamDirect-planned SELECT to emit, in materializing order, stopping
// the scan as soon as the window is filled (or emit declines). The window
// is enforced on the emit side; the scan budget is a hint the capped
// parallel executor also honors. Both evaluation entry points — the
// materialized fast path and the incremental Stream.Run — are this one
// loop, so modifier semantics cannot diverge between them.
func (e *engine) runDirect(q *Query, vars []string, emit func(Binding) bool) error {
	if q.Limit == 0 {
		return nil
	}
	budget := -1
	if q.Limit > 0 {
		budget = addBudget(q.Offset, q.Limit)
		if budget >= 0 && e.met != nil {
			e.met.PushdownHits.Inc()
		}
	}
	skipped, emitted := 0, 0
	return e.streamSolutions(q.Where, budget, func(sol Binding) bool {
		if skipped < q.Offset {
			skipped++
			return true
		}
		emitted++
		if !emit(projectSolution(q, vars, sol, nil)) {
			return false
		}
		return q.Limit < 0 || emitted < q.Limit
	})
}

// scanRestartAttempts bounds how often a paged scan the store compacted
// under is restarted; past it, the snapshot-consistent materializing
// pipeline takes over (correct at any write rate, just not
// early-terminating).
const scanRestartAttempts = 3

// retryShifted runs attempt until one ends without the store having
// compacted under its paged scan, scanRestartAttempts times at most.
// done=false means every attempt was shifted; whatever an attempt
// accumulated must be reset at its start.
func retryShifted(attempt func() error) (done bool, err error) {
	for i := 0; i < scanRestartAttempts; i++ {
		if err = attempt(); !errors.Is(err, errScanShifted) {
			return true, err
		}
	}
	return false, nil
}

// evalStreamFast is the engine's early-termination entry: it handles the
// query shapes whose solution modifiers let evaluation stop before the full
// scan (ok=true), and declines (ok=false) when the query must materialize —
// including when concurrent compaction keeps shifting the paged scan out
// from under it. Results are always exactly what the materializing
// pipeline would return.
func (e *engine) evalStreamFast(q *Query) (res *Results, ok bool, err error) {
	mode := planStream(q)
	k := addBudget(q.Offset, q.Limit)
	var attempt func() error
	switch {
	case mode == streamDirect && q.Form == FormAsk:
		attempt = func() error {
			res = &Results{Form: FormAsk}
			return e.streamSolutions(q.Where, 1, func(Binding) bool {
				res.Ask = true
				return false
			})
		}
	case mode == streamDirect && q.Limit >= 0:
		// (Without a LIMIT the whole set is needed anyway; the
		// materializing pipeline is no slower and shares more code.)
		attempt = func() error {
			res = &Results{Form: FormSelect, Vars: streamVars(q)}
			return e.runDirect(q, res.Vars, func(r Binding) bool {
				res.Rows = append(res.Rows, r)
				return true
			})
		}
	case mode == streamTopK && k >= 0:
		// (k < 0: offset+limit overflows, no meaningful heap bound exists,
		// and a window that large is a full materialization anyway.)
		attempt = func() error {
			res = &Results{Form: FormSelect, Vars: streamVars(q)}
			var sols []Binding
			if k > 0 {
				var err error
				if sols, err = e.streamTopK(q, k); err != nil {
					return err
				}
			}
			rows := make([]Binding, 0, len(sols))
			for _, s := range sols {
				rows = append(rows, projectSolution(q, res.Vars, s, nil))
			}
			res.Rows = sliceOffsetLimit(rows, q.Offset, q.Limit)
			return nil
		}
	default:
		return nil, false, nil
	}
	if ok, err = retryShifted(attempt); !ok || err != nil {
		return nil, ok, err
	}
	return res, true, nil
}

// streamVars resolves the projected column names without evaluating: the
// explicit projection list in order, or for SELECT * every variable the
// pattern can bind, sorted. Both evaluation paths use this, so the header
// never depends on which rows a LIMIT kept. _-prefixed names are excluded
// to hide the parser's _anonN bnode variables — which also hides, as a
// documented side effect, user variables starting with '_' under SELECT *
// (explicit projection always works).
func streamVars(q *Query) []string {
	if !q.Star {
		vars := make([]string, 0, len(q.Projection))
		for _, item := range q.Projection {
			vars = append(vars, item.Var)
		}
		return vars
	}
	set := map[string]bool{}
	collectBindableVars(q.Where, set)
	out := make([]string, 0, len(set))
	for v := range set {
		if len(v) > 0 && v[0] != '_' {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Stream is a prepared streaming query evaluation: parsing and planning
// happen at construction, so the column header is known before the first
// row, and Run delivers rows through a callback as they are found. The
// HTTP /sparql/stream endpoint and Dataset.QueryStream are built on it.
type Stream struct {
	e    *engine
	q    *Query
	mode streamMode
	vars []string
}

// PrepareStream parses and plans query for streaming delivery against src.
// Parse failures match ErrParse.
func PrepareStream(ctx context.Context, src store.Source, query string, opt Options) (*Stream, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return PrepareStreamQuery(ctx, src, q, opt), nil
}

// PrepareStreamQuery is PrepareStream over an already-parsed query.
func PrepareStreamQuery(ctx context.Context, src store.Source, q *Query, opt Options) *Stream {
	s := &Stream{e: newEngine(ctx, src, opt), q: q, mode: planStream(q)}
	if q.Form == FormSelect {
		s.vars = streamVars(q)
	}
	return s
}

// Vars returns the projected column names (nil for ASK).
func (s *Stream) Vars() []string { return s.vars }

// Form returns the query form (FormSelect streams rows via Run, FormAsk
// answers via Ask).
func (s *Stream) Form() QueryForm { return s.q.Form }

// Incremental reports whether Run delivers rows while evaluation is still
// in progress — and, when the query carries a LIMIT, stops scanning as soon
// as enough rows are out. False means the query's shape forces full
// evaluation first (ORDER BY, DISTINCT, grouping, UNION or SERVICE
// patterns); rows still arrive through the same callback, just only after
// the result set is complete.
func (s *Stream) Incremental() bool { return s.mode == streamDirect && s.q.Form == FormSelect }

// Run evaluates a SELECT stream, calling emit for every result row in
// order — the same rows the materializing pipeline returns — until emit
// returns false. Errors match ErrEval.
func (s *Stream) Run(emit func(Binding) bool) error {
	if s.q.Form != FormSelect {
		return wrapEval(fmt.Errorf("sparql: Run on an ASK query; use Ask"))
	}
	if s.mode == streamDirect {
		delivered := false
		done, err := retryShifted(func() error {
			err := s.e.runDirect(s.q, s.vars, func(r Binding) bool {
				delivered = true
				return emit(r)
			})
			if delivered && errors.Is(err, errScanShifted) {
				// Rows already reached the consumer; a restart would
				// duplicate them. Surface the conflict instead.
				return fmt.Errorf("%v; re-run the query", err)
			}
			return err
		})
		if done {
			if s.e.met != nil {
				s.e.met.QueriesStreamed.Inc()
			}
			return wrapEval(err)
		}
		// Compaction churn with nothing delivered: the materialized replay
		// below is snapshot-consistent.
	}
	// Materializing modes (top-k included) share the Results pipeline and
	// replay the finished rows.
	res, err := evalWithEngine(s.e, s.q)
	if err != nil {
		return wrapEval(err)
	}
	for _, row := range res.Rows {
		if !emit(row) {
			return nil
		}
	}
	return nil
}

// Ask answers an ASK stream, stopping at the first matching solution when
// the pattern qualifies for streaming. Errors match ErrEval.
func (s *Stream) Ask() (bool, error) {
	if s.q.Form != FormAsk {
		return false, wrapEval(fmt.Errorf("sparql: Ask on a SELECT query; use Run"))
	}
	res, err := evalWithEngine(s.e, s.q)
	if err != nil {
		return false, wrapEval(err)
	}
	return res.Ask, nil
}
