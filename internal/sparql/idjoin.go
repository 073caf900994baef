package sparql

import (
	"slices"
	"time"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// The executor. A run of consecutive triple patterns is evaluated entirely
// over dictionary IDs, whoever asks — the materialized or the paged solution
// source (stream.go) or DELETE WHERE: input bindings are encoded once
// into a flat uint32 arena, each pattern either merge-joins a sorted
// permutation run (equal-prefix joins), probes the indexes per row, or
// cross-joins one shared scan, and terms are decoded in one batch only when
// the run's survivors become Bindings or, as the paged source's final rows,
// result columns. Every strategy below emits, for each
// input row in input order, that row's matches in exactly the order a
// per-row scan of the PosAny permutation would give, so which strategy ran
// never shows in the output; the differential tests hold all of them to a
// sequential term-space evaluator kept in their own files.

const (
	// mergeScanFactor bounds when a merge join pays: scanning an index range
	// of est entries beats per-row binary-search probes only while
	// est <= rows * mergeScanFactor (a probe costs ~log n comparisons plus
	// cache misses; a merge pass costs ~1 sequential read per entry).
	mergeScanFactor = 64
	// idTailMax bounds the uncompacted-delta suffix a merge join rescans per
	// input row; a delta burst past it falls back to per-row probes rather
	// than turning the merge into rows × delta linear work.
	idTailMax = 256
)

// idRows is a column-compressed intermediate solution set: row r occupies
// ids[r*stride : (r+1)*stride] in slot order (0 = slot unbound in that row),
// and parents[r] indexes the input Binding the row descends from.
type idRows struct {
	stride  int
	ids     []store.ID
	parents []int32
}

func (r *idRows) n() int { return len(r.parents) }

func (r *idRows) row(i int) []store.ID { return r.ids[i*r.stride : (i+1)*r.stride] }

// idPos classifies one pattern position: a constant's dictionary ID, or the
// slot index of its variable.
type idPos struct {
	slot int // -1 for a constant
	id   store.ID
}

// patternRun is what the patterns of one run share while they execute: the
// slot of every variable the run mentions, and the input bindings its rows
// descend from.
type patternRun struct {
	e        *engine
	slotOf   map[string]int
	slotVars []string
	input    []Binding

	merge mergeBuf

	// pageSpans, set by the paged source, holds one trace span per pattern
	// extend joins (to its pages, or after them); each page adds to them
	// instead of adding spans of its own.
	pageSpans []*explain.Span
}

// mergeBuf holds idMergeJoin's buffers. Each run keeps one, so every merge
// of the run reuses them, page after page (the paged source joins each page
// through the same run).
type mergeBuf struct {
	uniq         []store.ID
	keyIdx       []int32
	spans, deads []idSpan
}

// idSpan is a [lo,hi) window of a sorted run.
type idSpan struct{ lo, hi int32 }

// evalPatternRun evaluates a maximal run of consecutive triple patterns.
// spans, when not nil, are the run's pageSpans (one per pattern).
func (e *engine) evalPatternRun(run []TriplePattern, input []Binding, spans []*explain.Span) ([]Binding, error) {
	if e.runOracle != nil {
		return e.runOracle(run, input)
	}
	r, rows := e.newPatternRun(run, input)
	r.pageSpans = spans
	rows, err := r.extend(rows, run, -1)
	if err != nil {
		return nil, err
	}
	return r.decode(rows), nil
}

// newPatternRun lays out the run's slots and encodes the input bindings as
// its first rows. A binding whose slot term is absent from the dictionary
// can never survive the pattern mentioning that slot (every slot is
// mentioned by some pattern in the run), so its row is dropped here.
func (e *engine) newPatternRun(run []TriplePattern, input []Binding) (*patternRun, idRows) {
	if e.met != nil {
		e.met.RunsIDJoin.Inc()
	}
	r := &patternRun{e: e, slotOf: map[string]int{}, input: input}
	for _, tp := range run {
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				if _, ok := r.slotOf[n.Var]; !ok {
					r.slotOf[n.Var] = len(r.slotVars)
					r.slotVars = append(r.slotVars, n.Var)
				}
			}
		}
	}
	stride := len(r.slotVars)
	rows := idRows{stride: stride, parents: make([]int32, 0, len(input))}
	if stride > 0 {
		rows.ids = make([]store.ID, 0, stride*len(input))
	}
	scratch := make([]store.ID, stride)
next:
	for i, b := range input {
		clear(scratch)
		for s, v := range r.slotVars {
			if t, bound := b[v]; bound {
				id, inDict := e.termID(t)
				if !inDict {
					continue next
				}
				scratch[s] = id
			}
		}
		rows.ids = append(rows.ids, scratch...)
		rows.parents = append(rows.parents, int32(i))
	}
	return r, rows
}

// positions classifies a pattern's positions against the run's slots;
// ok=false means a constant is absent from the dictionary, so no triple
// matches.
func (r *patternRun) positions(tp TriplePattern) (ps [3]idPos, ok bool) {
	ids, ok := r.e.constIDs(tp)
	for i, n := range [3]Node{tp.S, tp.P, tp.O} {
		if n.IsVar() {
			ps[i] = idPos{slot: r.slotOf[n.Var]}
		} else {
			ps[i] = idPos{slot: -1, id: ids[i]}
		}
	}
	return ps, ok
}

// extend joins rows through pats in order. limit >= 0 says only the first
// limit rows of the last pattern's output are needed (the stream driver
// passes it when that output is final solutions); the probe strategy then
// stops early, the others may return more.
func (r *patternRun) extend(rows idRows, pats []TriplePattern, limit int) (idRows, error) {
	e := r.e
	// Per-slot binding state across the rows: boundAll slots join (their
	// value keys a merge), fresh (!boundAny) slots are pure outputs, mixed
	// slots force the generic probe.
	boundAll := make([]bool, rows.stride)
	boundAny := make([]bool, rows.stride)
	for s := range boundAll {
		boundAll[s] = rows.n() > 0
	}
	for i := 0; i < rows.n(); i++ {
		for s, id := range rows.row(i) {
			if id == 0 {
				boundAll[s] = false
			} else {
				boundAny[s] = true
			}
		}
	}
	for i, tp := range pats {
		if err := e.cancelled(); err != nil {
			return idRows{}, err
		}
		if rows.n() == 0 {
			break
		}
		var start time.Time
		if e.trace != nil {
			start = time.Now()
		}
		before := rows.n()
		patLimit := -1
		if i == len(pats)-1 {
			patLimit = limit
		}
		var strat string
		var err error
		rows, strat, err = r.extendOne(tp, rows, boundAll, boundAny, patLimit)
		if err != nil {
			return idRows{}, err
		}
		switch {
		case e.trace == nil:
		case r.pageSpans != nil:
			r.pageSpans[i].AddPage(strat, before, rows.n(), time.Since(start))
		default:
			e.trace.Add(e.exec, "pattern").Set(patternString(tp), strat, before, rows.n(), start)
		}
		if e.met != nil {
			e.met.RowsOut.Add(uint64(rows.n()))
		}
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() && rows.n() > 0 {
				s := r.slotOf[n.Var]
				boundAll[s], boundAny[s] = true, true
			}
		}
	}
	return rows, nil
}

// extendOne extends rows by one pattern, picking the cheapest
// order-preserving strategy; the strategy chosen is returned for traces
// ("id-merge", "id-cross", "id-probe", or "id-empty" when a constant is
// absent from the dictionary).
func (r *patternRun) extendOne(tp TriplePattern, rows idRows, boundAll, boundAny []bool, limit int) (idRows, string, error) {
	e, src := r.e, r.e.st
	ps, ok := r.positions(tp)
	if !ok {
		return idRows{stride: rows.stride}, "id-empty", nil
	}

	// Classify the pattern's variable slots against the current rows.
	repeated := false
	for i, p := range ps {
		if p.slot < 0 {
			continue
		}
		for j := 0; j < i; j++ {
			if ps[j].slot == p.slot {
				repeated = true
			}
		}
	}
	allFresh, mixed := true, false
	nBound, freshPositions, boundSlot := 0, 0, -1
	lead := store.PosAny
	positionOf := [3]store.Position{store.PosS, store.PosP, store.PosO}
	for i, p := range ps {
		if p.slot < 0 {
			continue
		}
		switch {
		case boundAll[p.slot]:
			allFresh = false
			nBound++
			boundSlot = p.slot
			lead = positionOf[i]
		case boundAny[p.slot]:
			allFresh = false
			mixed = true
		default:
			freshPositions++
		}
	}

	var cs, cp, co store.ID
	if ps[0].slot < 0 {
		cs = ps[0].id
	}
	if ps[1].slot < 0 {
		cp = ps[1].id
	}
	if ps[2].slot < 0 {
		co = ps[2].id
	}

	if allFresh {
		// No position constrains the rows: one shared scan crossed with
		// every row (repeated fresh variables filter inside idUnify).
		out, err := e.idScanCross(ps, cs, cp, co, rows)
		return out, "id-cross", err
	}
	if !mixed && !repeated && nBound >= 1 && freshPositions == 0 {
		// Existence merge: every variable slot is bound, so the pattern is
		// fully ground per row and matches at most one triple — emission
		// order is trivially the input row order, for any choice of lead.
		// One sorted scan over the constant mask replaces a per-row index
		// probe (and its lock acquisition); idUnify enforces the non-lead
		// bound slots.
		if est := src.EstimateCountIDs(cs, cp, co); est <= rows.n()*mergeScanFactor {
			for i, p := range ps {
				if p.slot < 0 || !boundAll[p.slot] {
					continue
				}
				out, ok, err := e.idMergeJoin(&r.merge, ps, cs, cp, co, p.slot, positionOf[i], rows)
				if err != nil || ok {
					return out, "id-merge", err
				}
			}
		}
	}
	if nBound == 1 && !mixed && !repeated && freshPositions > 0 &&
		// Ordering caveat: a bound predicate variable over an otherwise
		// unconstrained pattern would merge through PSO (sorted s,o) while
		// the per-row scan uses POS (sorted o,s) — the one lead/mask
		// combination whose per-key order differs. Probe keeps parity.
		!(lead == store.PosP && cs == 0 && co == 0) {
		if est := src.EstimateCountIDs(cs, cp, co); est <= rows.n()*mergeScanFactor {
			out, ok, err := e.idMergeJoin(&r.merge, ps, cs, cp, co, boundSlot, lead, rows)
			if err != nil || ok {
				return out, "id-merge", err
			}
		}
	}
	out, err := e.idProbe(ps, rows, limit)
	return out, "id-probe", err
}

// idMergeJoin answers a single-join-variable pattern with one sorted range
// scan: ScanIDs takes the matches ordered by the join position, the
// distinct row keys merge against that run in one pass, and each row then
// emits its key's span (its Dead entries skipped, delta-tail matches after)
// — the same matches, in the same order, the per-row probe would produce.
// ok=false (no permutation for the lead, or an outsized delta tail) sends
// the caller to the probe path.
func (e *engine) idMergeJoin(buf *mergeBuf, ps [3]idPos, cs, cp, co store.ID, boundSlot int, lead store.Position, rows idRows) (idRows, bool, error) {
	scan, ok := e.st.ScanIDs(cs, cp, co, lead)
	if !ok {
		return idRows{}, false, nil
	}
	if len(scan.Tail) > idTailMax {
		return idRows{}, false, nil
	}
	keyOf := func(t store.IDTriple) store.ID {
		switch lead {
		case store.PosS:
			return t.S
		case store.PosP:
			return t.P
		default:
			return t.O
		}
	}

	// The distinct row keys, ascending. Rows that came out of an earlier
	// merge or an index scan already ascend by this slot, and their keys
	// are collected in one pass; only genuinely shuffled inputs pay the
	// sort.
	uniq := slices.Grow(buf.uniq[:0], rows.n())
	for i := 0; i < rows.n(); i++ {
		k := rows.row(i)[boundSlot]
		if n := len(uniq); n > 0 && uniq[n-1] >= k {
			if uniq[n-1] == k {
				continue
			}
			uniq = uniq[:0]
			for j := 0; j < rows.n(); j++ {
				uniq = append(uniq, rows.row(j)[boundSlot])
			}
			slices.Sort(uniq)
			uniq = slices.Compact(uniq)
			break
		}
		uniq = append(uniq, k)
	}
	buf.uniq = uniq

	// One linear merge: ascending distinct keys against the ascending run.
	// spans[j] is uniq[j]'s [lo,hi) window in Sorted, and deads[j] its
	// window in Dead (which ascends by key too, being a subsequence of
	// Sorted) when the run has any.
	spans := slices.Grow(buf.spans[:0], len(uniq))[:len(uniq)]
	buf.spans = spans
	var deads []idSpan
	if len(scan.Dead) > 0 {
		deads = slices.Grow(buf.deads[:0], len(uniq))[:len(uniq)]
		buf.deads = deads
	}
	i, d := 0, 0
	for u, k := range uniq {
		for i < len(scan.Sorted) && keyOf(scan.Sorted[i]) < k {
			i++
		}
		lo := i
		for i < len(scan.Sorted) && keyOf(scan.Sorted[i]) == k {
			i++
		}
		spans[u] = idSpan{int32(lo), int32(i)}
		if deads != nil {
			for d < len(scan.Dead) && keyOf(scan.Dead[d]) < k {
				d++
			}
			lo := d
			for d < len(scan.Dead) && keyOf(scan.Dead[d]) == k {
				d++
			}
			deads[u] = idSpan{int32(lo), int32(d)}
		}
	}

	// Each row's key, found by binary-searching uniq (cheaper than a hash
	// map at these sizes), and the live matches all rows can take, so the
	// output is allocated once (delta-tail matches aside). A pattern whose
	// every variable is bound (the caller's existence merge) matches at
	// most one triple per row.
	keyIdx := slices.Grow(buf.keyIdx[:0], rows.n())
	most := 0
	for ri := 0; ri < rows.n(); ri++ {
		u, _ := slices.BinarySearch(uniq, rows.row(ri)[boundSlot])
		keyIdx = append(keyIdx, int32(u))
		most += int(spans[u].hi - spans[u].lo)
		if deads != nil {
			most -= int(deads[u].hi - deads[u].lo)
		}
	}
	buf.keyIdx = keyIdx
	if most > rows.n() && !slices.ContainsFunc(ps[:], func(p idPos) bool { return p.slot >= 0 && rows.row(0)[p.slot] == 0 }) {
		most = rows.n()
	}

	out := idRows{stride: rows.stride, ids: make([]store.ID, 0, most*rows.stride), parents: make([]int32, 0, most)}
	scratch := make([]store.ID, rows.stride)
	steps := 0
	for ri, u := range keyIdx {
		row := rows.row(ri)
		k := uniq[u]
		var dead []store.IDTriple
		if deads != nil {
			dead = scan.Dead[deads[u].lo:deads[u].hi]
		}
		for _, m := range scan.Sorted[spans[u].lo:spans[u].hi] {
			if len(dead) > 0 && dead[0] == m {
				dead = dead[1:]
				continue
			}
			steps++
			if steps%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return idRows{}, true, err
				}
			}
			copy(scratch, row)
			if idUnify(ps, scratch, m) {
				out.ids = append(out.ids, scratch...)
				out.parents = append(out.parents, rows.parents[ri])
			}
		}
		for _, m := range scan.Tail {
			if keyOf(m) != k {
				continue
			}
			copy(scratch, row)
			if idUnify(ps, scratch, m) {
				out.ids = append(out.ids, scratch...)
				out.parents = append(out.parents, rows.parents[ri])
			}
		}
	}
	e.met.addScanned(steps)
	return out, true, nil
}

// idScanCross answers a pattern none of whose variables are bound yet: scan
// the constant mask once, then cross the matches with every row. Identical to
// probing each row — every row's probe would walk the same range in the same
// order — at 1/rows the scan cost.
func (e *engine) idScanCross(ps [3]idPos, cs, cp, co store.ID, rows idRows) (idRows, error) {
	var matches []store.IDTriple
	scanned := 0
	var stop error
	e.st.ForEachID(cs, cp, co, func(t store.IDTriple) bool {
		scanned++
		if scanned%cancelCheckInterval == 0 {
			if err := e.cancelled(); err != nil {
				stop = err
				return false
			}
		}
		matches = append(matches, t)
		return true
	})
	if stop != nil {
		return idRows{}, stop
	}
	e.met.addScanned(scanned)
	out := idRows{stride: rows.stride}
	scratch := make([]store.ID, rows.stride)
	steps := 0
	for r := 0; r < rows.n(); r++ {
		row := rows.row(r)
		for _, m := range matches {
			steps++
			if steps%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return idRows{}, err
				}
			}
			copy(scratch, row)
			if idUnify(ps, scratch, m) {
				out.ids = append(out.ids, scratch...)
				out.parents = append(out.parents, rows.parents[r])
			}
		}
	}
	return out, nil
}

// idProbe is the general per-row strategy: concretize the mask from the
// row's slots and scan the matching range. Large row sets fan out to the
// engine's worker pool, which joins the chunks in row order. limit >= 0
// stops the probing once that many rows are out and cuts the output to it.
func (e *engine) idProbe(ps [3]idPos, rows idRows, limit int) (idRows, error) {
	parts, err := parChunks(e, rows.n(), limit, (*idRows).n, func(lo, hi int) (*idRows, error) {
		out := &idRows{stride: rows.stride}
		scratch := make([]store.ID, rows.stride)
		scanned := 0
		var stop error
		for i := lo; i < hi && (limit < 0 || out.n() < limit); i++ {
			if (i-lo)%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return nil, err
				}
			}
			row := rows.row(i)
			s, p, o := maskFor(ps, row)
			e.st.ForEachID(s, p, o, func(m store.IDTriple) bool {
				scanned++
				if scanned%cancelCheckInterval == 0 {
					if stop = e.cancelled(); stop != nil {
						return false
					}
				}
				copy(scratch, row)
				if idUnify(ps, scratch, m) {
					out.ids = append(out.ids, scratch...)
					out.parents = append(out.parents, rows.parents[i])
				}
				return limit < 0 || out.n() < limit
			})
			if stop != nil {
				return nil, stop
			}
		}
		e.met.addScanned(scanned)
		return out, nil
	})
	if err != nil {
		return idRows{}, err
	}
	out := *parts[0]
	for _, part := range parts[1:] {
		if part != nil { // nil: a chunk skipped past the limit
			out.ids = append(out.ids, part.ids...)
			out.parents = append(out.parents, part.parents...)
		}
	}
	if limit >= 0 && out.n() > limit {
		out.ids, out.parents = out.ids[:limit*out.stride], out.parents[:limit]
	}
	return out, nil
}

// maskFor concretizes the pattern for one row: constants keep their IDs,
// bound slots contribute the row's value, unbound slots scan as wildcards.
func maskFor(ps [3]idPos, row []store.ID) (s, p, o store.ID) {
	get := func(p idPos) store.ID {
		if p.slot < 0 {
			return p.id
		}
		return row[p.slot]
	}
	return get(ps[0]), get(ps[1]), get(ps[2])
}

// idUnify folds a match into a row copy: bound slots must agree with the
// match (repeated variables included — the second occurrence sees the
// first's assignment), unbound slots take the match's value.
func idUnify(ps [3]idPos, row []store.ID, m store.IDTriple) bool {
	vals := [3]store.ID{m.S, m.P, m.O}
	for i, p := range ps {
		if p.slot < 0 {
			continue // constants are enforced by the scan mask
		}
		if cur := row[p.slot]; cur != 0 {
			if cur != vals[i] {
				return false
			}
		} else {
			row[p.slot] = vals[i]
		}
	}
	return true
}

// decode materializes rows as Bindings: one batch ID→term decode, then one
// parent clone plus the run's new columns per row.
func (r *patternRun) decode(rows idRows) []Binding {
	if rows.n() == 0 {
		return nil
	}
	terms := r.e.st.Terms(rows.ids)
	out := make([]Binding, 0, rows.n())
	for i := 0; i < rows.n(); i++ {
		nb := r.input[rows.parents[i]].clone()
		base := i * rows.stride
		for s, v := range r.slotVars {
			if rows.ids[base+s] == 0 {
				continue
			}
			if _, bound := nb[v]; bound {
				continue
			}
			nb[v] = terms[base+s]
		}
		out = append(out, nb)
	}
	return out
}

// colSeed marks a result column no run slot holds: a final row reads it
// from its input binding, where a BIND/VALUES prefix ahead of the run put
// the variable if anything did.
const colSeed = -1

// columnSources maps each result column (vars) to the run slot it reads,
// or to colSeed.
func (r *patternRun) columnSources(vars []string) []int {
	src := make([]int, len(vars))
	for c, v := range vars {
		if s, ok := r.slotOf[v]; ok {
			src[c] = s
		} else {
			src[c] = colSeed
		}
	}
	return src
}

// columns turns final rows into result columns laid out by src, row after
// row in one slice: the slot IDs are gathered in column order (buf is the
// reusable gather buffer) and decoded by one Terms call, and the other
// columns copy the row's input binding. No Binding is built.
func (r *patternRun) columns(rows idRows, src []int, vars []string, buf []store.ID) ([]rdf.Term, []store.ID) {
	if rows.n() == 0 {
		return nil, buf
	}
	buf = buf[:0]
	for i := 0; i < rows.n(); i++ {
		row := rows.row(i)
		for _, s := range src {
			var id store.ID // 0 decodes to nil
			if s >= 0 {
				id = row[s]
			}
			buf = append(buf, id)
		}
	}
	cols := r.e.st.Terms(buf)
	w := len(src)
	for c, s := range src {
		if s != colSeed {
			continue
		}
		for i := 0; i < rows.n(); i++ {
			cols[i*w+c] = r.input[rows.parents[i]][vars[c]]
		}
	}
	return cols, buf
}
