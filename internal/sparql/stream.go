package sparql

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/store"
)

// The query driver. Every query form runs the same way: one solution source
// followed by one fixed chain of solution modifiers. EvalCtx collects the
// chain's rows into Results, Stream.RunRows hands them to a live consumer,
// and ASK is the chain stopped at its first solution.
//
// A row leaves the chain as a column vector: []rdf.Term in streamVars
// order, nil for unbound. A Binding (a map from name to term) is built only
// where a stage needs term values by name: the rows after a run that
// something follows (FILTER, OPTIONAL, BIND), the materialized source,
// grouping, projection expressions and ORDER BY keys. The paged source's
// final rows need none of that and go from dictionary IDs to columns by a
// slot permutation.
//
// The source is one of two:
//
//   - paged (streamSolutions): the first pattern's scan is one store run,
//     read page by page, each page joined through the rest of the group and
//     handed on before the next is read, so delivery can start — and
//     evaluation stop — before the scan is done. planStream admits a query
//     to it: a top-level pattern with only BIND/VALUES ahead of it, no
//     UNION or SERVICE, and no DISTINCT or grouping.
//   - materialized (evalGroup): every solution first, under one read view
//     per scan. Everything planStream refuses takes it, and so does a
//     buffered SELECT without LIMIT, which needs every solution anyway.
//
// The chain runs in SPARQL order: group/aggregate + HAVING when present,
// ORDER BY, DISTINCT, the OFFSET/LIMIT window, emit. ORDER BY is one keyed
// selection (sampling.TopK) bounded at offset+limit when a LIMIT caps the
// window and no DISTINCT can drop rows after it, so a top-k query keeps k
// candidates, not the result set; ties keep arrival order. Every solution
// enters the chain already projected to its result row, with its own sort
// keys (the group stage evaluates them over the group), so the rows never
// have to carry the variables only ORDER BY reads.
// Without ORDER BY, the window's LIMIT rides into the paged source as a
// budget: work then scales with k, not with the dataset.

// planStream reports whether the paged source can serve q with exactly the
// rows, in order, the materialized source gives: the group must be row-local
// (streamableElems) and have a scan to suspend (streamablePrefix), and no
// modifier may need the whole solution set before its first output — ORDER
// BY only under a LIMIT, whose top-k selection still beats the full sort.
func planStream(q *Query) bool {
	if q.Where == nil {
		return false
	}
	g := unwrapGroup(q.Where)
	if !streamableElems(g.Elems) || !streamablePrefix(g.Elems) {
		return false
	}
	if q.Form == FormAsk {
		return true
	}
	return !q.Distinct && !grouped(q) && len(q.Having) == 0 && (len(q.OrderBy) == 0 || q.Limit >= 0)
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
// then does batched tail evaluation preserve the materialized row order.
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
// the group's filters) in exactly the order the materialized source
// produces, until the receiver returns false. budget >= 0 is the caller's
// expected row need; it rides into the executor as a probe bound but the
// receiver alone decides when delivery stops. budget < 0 streams the full
// solution set.
//
// With rows set, solutions that are final when the run ends (nothing
// follows it, no filter) go to rows as result columns laid out by vars,
// and no Binding is built for them; every other solution goes to sols as a
// Binding.
//
// The driver takes one store run (ScanIDs) of the group's first pattern per
// seed and cuts it into pages: each page is unified into ID rows, joined
// through the rest of its pattern run, decoded (one Terms call per page),
// put through whatever follows the run and handed on. The run is read with
// no lock held and holds still, so a slow network consumer never stalls the
// store's writers, a consumer may even write to the store, and a write or a
// merge landing between two pages changes nothing the scan reads: every page
// of a seed's scan reads the store as it was when the run was taken. The
// patterns joined to a page are probed against the store as it is then.
func (e *engine) streamSolutions(g *Group, budget int, vars []string, rows func([]rdf.Term) bool, sols func(Binding) bool) error {
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
	var src []int // where each result column of a final row comes from
	asColumns := final && rows != nil
	if asColumns {
		src = r.columnSources(vars)
	}

	// Driver accounting: pages pulled, scan matches produced and Bindings
	// built, flushed once on the way out (every return path) to metrics
	// and — as one "paged-scan" pattern span — to the trace.
	var pages, scanned, built int
	var driverStart time.Time
	if e.trace != nil {
		driverStart = time.Now()
	}
	defer func() {
		if e.met != nil {
			e.met.PagesScanned.Add(uint64(pages))
			e.met.MatchesScanned.Add(uint64(scanned))
			e.met.RowsOut.Add(uint64(scanned))
			e.met.BindingsBuilt.Add(uint64(built))
		}
		if e.trace != nil {
			sp := e.trace.Add(e.exec, "pattern")
			sp.Set(patternString(run[0]), "paged-scan", len(input), scanned, driverStart)
			sp.SetPages(pages)
		}
	}()

	emitted := 0
	batchCap := streamBatchInit
	scratch := make([]store.ID, seeds.stride)
	var colIDs []store.ID
	// deliver joins, decodes and hands on one page; false means the
	// receiver is done or err is set.
	deliver := func(page idRows) bool {
		pages++
		scanned += page.n()
		limit := -1
		if final {
			limit = remainingBudget(budget, emitted)
		}
		if page, err = r.extend(page, run[1:], limit); err != nil {
			return false
		}
		if batchCap < streamBatchMax {
			batchCap *= 2
		}
		if asColumns {
			var cols []rdf.Term
			cols, colIDs = r.columns(page, src, vars, colIDs)
			w := len(src)
			for j := 0; j < page.n(); j++ {
				emitted++
				if !rows(cols[j*w : (j+1)*w : (j+1)*w]) {
					return false
				}
			}
			return true
		}
		out := r.decode(page)
		built += len(out)
		if !final && len(out) > 0 {
			if out, err = e.evalElems(rest, g.Filters, out); err != nil {
				return false
			}
		}
		for _, sol := range out {
			emitted++
			if !sols(sol) {
				return false
			}
		}
		return true
	}
	// open starts the next page, sized by the geometrically growing batch,
	// clamped in direct mode to the rows still owed (each match there is a
	// final solution, so scanning further is pure waste); false ends the
	// query: nothing more is owed, or err is set.
	var page idRows
	taken, size := 0, 0
	open := func() bool {
		page, taken, size = idRows{stride: seeds.stride}, 0, batchCap
		if direct && budget >= 0 {
			size = min(size, remainingBudget(budget, emitted))
		}
		if size == 0 {
			return false
		}
		err = e.cancelled()
		return err == nil
	}
	for i := 0; i < seeds.n(); i++ {
		seed := seeds.row(i)
		ms, mp, mo := maskFor(ps, seed)
		scan, _ := e.st.ScanIDs(ms, mp, mo, store.PosAny)
		if !open() || !scan.ForEach(func(m store.IDTriple) bool {
			copy(scratch, seed)
			if idUnify(ps, scratch, m) {
				page.ids = append(page.ids, scratch...)
				page.parents = append(page.parents, seeds.parents[i])
			}
			if taken++; taken < size {
				return true
			}
			return deliver(page) && open()
		}) {
			return err
		}
		if taken > 0 && !deliver(page) {
			return err
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

// entry is one row in the modifier chain: its result columns, its ORDER BY
// key values and its arrival sequence, the stable-sort tiebreaker.
type entry struct {
	row  []rdf.Term
	keys []rdf.Term
	seq  int
}

// before orders entries key by key (unbound before bound per rdf.Compare,
// DESC negated), arrival order breaking ties — a strict order, seq being
// unique, so the selection is a stable sort.
func (a entry) before(b entry, keys []OrderKey) bool {
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

// sortKeys evaluates the ORDER BY keys with eval; a key that errors stays
// unbound and sorts first.
func sortKeys(keys []OrderKey, eval func(Expr) (rdf.Term, error)) []rdf.Term {
	if len(keys) == 0 {
		return nil
	}
	out := make([]rdf.Term, len(keys))
	for i, key := range keys {
		if t, err := eval(key.Expr); err == nil {
			out[i] = t
		}
	}
	return out
}

// execute is the driver's root: it picks the source, runs the chain and
// hands the windowed rows to emit in order until emit declines. live says
// emit is a consumer that takes rows as they come, not a buffer.
func (e *engine) execute(q *Query, emit func([]rdf.Term) bool, live bool) error {
	strategy, rows := "materialized", 0
	if e.trace != nil {
		start := time.Now()
		e.exec = e.trace.Add(nil, "execute")
		defer func() { e.exec.Set("", strategy, 0, rows, start) }()
	}
	count := func(row []rdf.Term) bool {
		rows++
		return emit(row)
	}
	paged := e.pages(q, live)
	if paged {
		strategy = "streamed"
	}
	if e.met != nil {
		if paged {
			e.met.QueriesStreamed.Inc()
		} else {
			e.met.QueriesMaterialized.Inc()
		}
	}
	return e.chain(q, paged, count)
}

// pages is the source-choice rule: the paged source serves what planStream
// admits, except a buffered SELECT without LIMIT, which needs every
// solution anyway. The differential tests' oracle (runOracle) always
// materializes.
func (e *engine) pages(q *Query, live bool) bool {
	return e.runOracle == nil && planStream(q) && (live || q.Limit >= 0 || q.Form == FormAsk)
}

// chain runs the query: the source, then the modifier stages in SPARQL
// order into emit.
func (e *engine) chain(q *Query, paged bool, emit func([]rdf.Term) bool) error {
	limit := q.Limit
	if q.Form == FormAsk {
		limit = 1
	}
	if limit == 0 {
		return nil // ahead of the order stage: a TopK bound of 0 keeps everything
	}

	// The stages after ORDER BY, built back to front: window, DISTINCT.
	skipped, taken := 0, 0
	out := func(row []rdf.Term) bool {
		if skipped < q.Offset {
			skipped++
			return true
		}
		taken++
		return emit(row) && (limit < 0 || taken < limit)
	}
	if q.Distinct {
		window, seen := out, map[string]struct{}{}
		var sig strings.Builder
		out = func(row []rdf.Term) bool {
			sig.Reset()
			for _, t := range row {
				writeSig(&sig, t)
			}
			if _, dup := seen[sig.String()]; dup {
				return true
			}
			seen[sig.String()] = struct{}{}
			return window(row)
		}
	}

	// ORDER BY: bounded at offset+limit unless DISTINCT may still drop rows
	// after it (an overflowing bound means unbounded too).
	next := func(ent entry) bool { return out(ent.row) }
	var top *sampling.TopK[entry]
	if len(q.OrderBy) > 0 {
		k := 0
		if limit > 0 && !q.Distinct {
			k = max(addBudget(q.Offset, limit), 0)
		}
		top = sampling.NewTopK(k, func(a, b entry) bool { return a.before(b, q.OrderBy) })
		seq := 0
		next = func(ent entry) bool {
			ent.seq = seq
			seq++
			top.Offer(ent)
			return true
		}
	}

	// The source, through the group stage when there is one; a solution
	// that arrives as a Binding is projected to its columns here.
	cols := newResultCols(q)
	group := grouped(q)
	var sols []Binding
	feed := func(s Binding) bool {
		if group {
			sols = append(sols, s)
			return true
		}
		keys := sortKeys(q.OrderBy, func(ex Expr) (rdf.Term, error) { return evalExpr(ex, s) })
		return next(entry{row: cols.project(q, s), keys: keys})
	}
	if paged {
		// planStream keeps DISTINCT and grouping off this source, so without
		// ORDER BY each solution is one window row and the window bounds the
		// scan.
		budget := -1
		if len(q.OrderBy) == 0 && limit > 0 {
			budget = addBudget(q.Offset, limit)
			if q.Form == FormSelect && budget >= 0 && e.met != nil {
				e.met.PushdownHits.Inc()
			}
		}
		// Without ORDER BY keys or projection expressions a final row needs
		// no term by name: it enters the window as columns.
		var rows func([]rdf.Term) bool
		if len(q.OrderBy) == 0 && !slices.ContainsFunc(q.Projection, func(item SelectItem) bool { return item.Expr != nil }) {
			rows = out
		}
		if err := e.streamSolutions(q.Where, budget, cols.vars, rows, feed); err != nil {
			return err
		}
	} else {
		all, err := e.evalGroup(q.Where, []Binding{{}})
		if err != nil {
			return err
		}
		if e.met != nil {
			e.met.BindingsBuilt.Add(uint64(len(all)))
		}
		for _, s := range all {
			if !feed(s) {
				break
			}
		}
	}
	if group {
		evalGrouped(q, cols, sols, next)
	}
	if top != nil {
		for _, ent := range top.Sorted() {
			if !out(ent.row) {
				break
			}
		}
	}
	return nil
}

// resultCols is a query's result-column layout: streamVars, plus the
// column groups of each name the projection lists more than once (nil
// when every name is unique).
type resultCols struct {
	vars []string
	dups [][]int
}

func newResultCols(q *Query) resultCols {
	c := resultCols{vars: streamVars(q)}
	at := map[string]int{} // name → its group in dups, or -1 while seen once
	for i, v := range c.vars {
		g, seen := at[v]
		switch {
		case !seen:
			at[v] = -1
		case g < 0:
			at[v] = len(c.dups)
			c.dups = append(c.dups, []int{slices.Index(c.vars, v), i})
		default:
			c.dups[g] = append(c.dups[g], i)
		}
	}
	return c
}

// project turns one solution into its result row: the star columns, or
// each projection item's variable or expression value (nil when unbound,
// or when the expression errs).
func (c resultCols) project(q *Query, s Binding) []rdf.Term {
	row := make([]rdf.Term, len(c.vars))
	if q.Star {
		for i, v := range c.vars {
			row[i] = s[v]
		}
		return row
	}
	for i, item := range q.Projection {
		if item.Expr == nil {
			row[i] = s[item.Var]
		} else if t, err := evalExpr(item.Expr, s); err == nil {
			row[i] = t
		}
	}
	c.settle(row)
	return row
}

// settle gives every column of a repeated name the value of the last item
// that bound it, so the row reads as one value per name.
func (c resultCols) settle(row []rdf.Term) {
	for _, group := range c.dups {
		var t rdf.Term
		for _, i := range group {
			if row[i] != nil {
				t = row[i]
			}
		}
		for _, i := range group {
			row[i] = t
		}
	}
}

// rowBinding is a result row as a Binding of its bound columns.
func rowBinding(vars []string, row []rdf.Term) Binding {
	b := make(Binding, len(vars))
	for i, v := range vars {
		if row[i] != nil {
			b[v] = row[i]
		}
	}
	return b
}

// streamVars resolves the projected column names without evaluating: the
// explicit projection list in order, or for SELECT * every variable the
// pattern can bind, sorted. The header therefore never depends on which
// source ran or which rows a LIMIT kept. _-prefixed names are excluded
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
// row, and RunRows delivers rows through a callback as the driver emits
// them.
// The HTTP /sparql/stream endpoint and Dataset.QueryStream are built on it.
type Stream struct {
	e    *engine
	q    *Query
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
	s := &Stream{e: newEngine(ctx, src, opt), q: q}
	if q.Form == FormSelect {
		s.vars = streamVars(q)
	}
	return s
}

// Vars returns the projected column names (nil for ASK): the names of a
// RunRows row's columns, in order.
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
func (s *Stream) Incremental() bool {
	return s.q.Form == FormSelect && len(s.q.OrderBy) == 0 && s.e.pages(s.q, true)
}

// RunRows evaluates a SELECT stream, calling emit for every result row in
// order — the rows EvalCtx returns, as columns named by Vars with nil for
// unbound — until emit returns false. Each row is emit's to keep. Errors
// match ErrEval.
func (s *Stream) RunRows(emit func([]rdf.Term) bool) error {
	if s.q.Form != FormSelect {
		return wrapEval(fmt.Errorf("sparql: Run on an ASK query; use Ask"))
	}
	return wrapEval(s.e.execute(s.q, emit, true))
}

// Run is RunRows with each row as a Binding of its bound columns.
func (s *Stream) Run(emit func(Binding) bool) error {
	return s.RunRows(func(row []rdf.Term) bool { return emit(rowBinding(s.vars, row)) })
}

// Ask answers an ASK stream, stopping at the first matching solution when
// the pattern qualifies for the paged source. Errors match ErrEval.
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
