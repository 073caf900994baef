package sparql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// cancelCheckInterval is how many bindings a probe loop processes between
// context checks: coarse enough that the check is free on the hot path, fine
// enough that a cancelled query stops within microseconds.
const cancelCheckInterval = 256

// engine evaluates parsed queries against a store.
type engine struct {
	// ctx bounds the evaluation; the probe loops poll it so a cancelled or
	// timed-out query stops mid-scan instead of running to completion.
	ctx context.Context
	st  store.Source
	// par is the BGP worker count; <=1 evaluates sequentially.
	par int
	// sem is the engine-wide budget of extra worker slots (par-1 tokens),
	// shared by nested parChunks calls so total fan-out stays bounded.
	sem chan struct{}
	// noReorder disables cost-based join reordering (tests compare the
	// naive textual order against the planned order).
	noReorder bool
	// runOracle, when set, evaluates triple-pattern runs in place of the ID
	// executor and keeps the query on the materialized source: the
	// differential tests' reference is a term-space oracle that lives in
	// their own files.
	runOracle func(run []TriplePattern, input []Binding) ([]Binding, error)
	// svc evaluates SERVICE clauses; nil means federation is not wired.
	svc ServiceEvaluator
	// met receives aggregate counters; nil (the common case) costs one
	// pointer check per flush site.
	met *Metrics
	// trace receives the execution span tree; nil disables tracing. exec is
	// the "execute" span pattern stages attach under (nil = trace root).
	trace *explain.Trace
	exec  *explain.Span
	// cards lazily caches the store's per-predicate cardinality table for
	// the duration of one query; cardsOnce makes the fetch safe from
	// concurrent worker goroutines.
	cards     map[rdf.IRI]store.PredCardinality
	cardsOnce sync.Once
	// ids memoizes term→ID lookups for the query (0 = absent): constants
	// repeat across patterns and between planner and executor, input
	// columns repeat across rows. idsMu guards it against the pool's
	// workers.
	ids   map[rdf.Term]store.ID
	idsMu sync.Mutex
}

// termID resolves a term to its dictionary ID; ok=false means no triple
// mentions it.
func (e *engine) termID(t rdf.Term) (store.ID, bool) {
	e.idsMu.Lock()
	id, seen := e.ids[t]
	e.idsMu.Unlock()
	if !seen {
		id, _ = e.st.LookupTermID(t)
		e.idsMu.Lock()
		e.ids[t] = id
		e.idsMu.Unlock()
	}
	return id, id != 0
}

// constIDs encodes a pattern's constant positions (0 for a variable);
// ok=false means a constant is absent from the dictionary and nothing can
// match.
func (e *engine) constIDs(tp TriplePattern) (ids [3]store.ID, ok bool) {
	for i, n := range [3]Node{tp.S, tp.P, tp.O} {
		if n.IsVar() {
			continue
		}
		if ids[i], ok = e.termID(n.Term); !ok {
			return ids, false
		}
	}
	return ids, true
}

// evalGroup evaluates a group graph pattern, extending each input binding.
func (e *engine) evalGroup(g *Group, input []Binding) ([]Binding, error) {
	elems := g.Elems
	if !e.noReorder {
		elems = e.reorderTriplePatterns(elems)
		e.tracePlan(elems)
	}
	return e.evalElems(elems, g.Filters, input, nil)
}

// tracePlan records the planned pattern order as a "plan" span. Only groups
// containing at least two patterns are recorded — a single pattern has no
// join order worth explaining, and OPTIONAL's per-binding inner groups
// would otherwise flood the trace.
func (e *engine) tracePlan(elems []GroupElem) {
	if e.trace == nil {
		return
	}
	var pats []string
	for _, el := range elems {
		if tp, ok := el.(TriplePattern); ok {
			pats = append(pats, patternString(tp))
		}
	}
	if len(pats) < 2 {
		return
	}
	sp := e.trace.Add(e.exec, "plan")
	sp.Set(strings.Join(pats, " . "), "", 0, 0, time.Time{})
}

// nodeString renders a pattern position: "?v" for variables, the term's
// lexical form for constants.
func nodeString(n Node) string {
	if n.IsVar() {
		return "?" + n.Var
	}
	return n.Term.String()
}

// patternString renders a triple pattern for trace details.
func patternString(tp TriplePattern) string {
	return nodeString(tp.S) + " " + nodeString(tp.P) + " " + nodeString(tp.O)
}

// evalElems evaluates an already-planned element sequence plus the group's
// filters. The paged source calls it directly with the tail of a
// reordered group so batched evaluation follows the exact plan the
// materialized source would use (re-planning the tail in isolation could
// pick a different join order and therefore a different row order). spans,
// when not nil, holds a trace span for each triple pattern of elems (by
// index), which its evaluation adds to instead of adding one of its own:
// the paged source evaluates the tail once per page.
func (e *engine) evalElems(elems []GroupElem, filters []Expr, input []Binding, spans []*explain.Span) ([]Binding, error) {
	cur := input
	for i := 0; i < len(elems); i++ {
		if err := e.cancelled(); err != nil {
			return nil, err
		}
		var err error
		switch el := elems[i].(type) {
		case TriplePattern:
			// Gather the maximal run of consecutive triple patterns: the run
			// evaluates as one unit so the executor (idjoin.go) keeps
			// intermediate rows dictionary-encoded across the joins and
			// decodes terms once at the end.
			run, first := []TriplePattern{el}, i
			for i+1 < len(elems) {
				next, ok := elems[i+1].(TriplePattern)
				if !ok {
					break
				}
				run = append(run, next)
				i++
			}
			var runSpans []*explain.Span
			if spans != nil {
				runSpans = spans[first : i+1]
			}
			cur, err = e.evalPatternRun(run, cur, runSpans)
		case SubGroup:
			cur, err = e.evalGroup(el.Inner, cur)
		case Optional:
			cur, err = e.evalOptional(el, cur)
		case Union:
			cur, err = e.evalUnion(el, cur)
		case Bind:
			cur, err = e.evalBind(el, cur)
		case Values:
			cur = evalValues(el, cur)
		case Service:
			cur, err = e.evalService(el, cur)
		default:
			err = fmt.Errorf("sparql: unknown group element %T", el)
		}
		if err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			break
		}
	}
	// Group filters apply to the whole group's solutions.
	for _, f := range filters {
		filtered := cur[:0:0]
		for _, b := range cur {
			ok, err := evalBool(f, b)
			if err == nil && ok {
				filtered = append(filtered, b)
			}
		}
		cur = filtered
	}
	return cur, nil
}

// reorderTriplePatterns greedily orders runs of triple patterns by estimated
// cost: at each step it picks the pattern with the smallest expected fan-out
// given the variables already bound, so `?s :special "yes"` beats
// `?s rdf:type :Item`, and a pattern joining on an already-bound variable
// beats an unconstrained scan, regardless of author order. Estimates combine
// the store's exact index-range counts over the constant positions with the
// per-predicate cardinality table (store.Cardinalities) for join positions.
// Non-pattern elements keep their positions.
func (e *engine) reorderTriplePatterns(elems []GroupElem) []GroupElem {
	out := make([]GroupElem, 0, len(elems))
	bound := map[string]bool{}
	i := 0
	for i < len(elems) {
		tp, ok := elems[i].(TriplePattern)
		if !ok {
			collectVars(elems[i], bound)
			out = append(out, elems[i])
			i++
			continue
		}
		// Collect the contiguous run of triple patterns.
		run := []TriplePattern{tp}
		j := i + 1
		for j < len(elems) {
			next, ok := elems[j].(TriplePattern)
			if !ok {
				break
			}
			run = append(run, next)
			j++
		}
		// Base estimates over the constant positions are independent of
		// the bound set; compute them once per run, not once per greedy
		// step — and not at all for a lone pattern, which has no order.
		bases := make([]float64, len(run))
		if len(run) > 1 {
			for k, cand := range run {
				bases[k] = float64(e.estimate(cand))
			}
		}
		// Greedy selection: repeatedly pick the cheapest pattern given
		// the variables bound so far. Ties go to the more-bound pattern,
		// then to textual order (stable across runs).
		for len(run) > 0 {
			best := 0
			bestCost := e.fanoutWithBase(run[0], bases[0], bound)
			bestScore := patternScore(run[0], bound)
			for k := 1; k < len(run); k++ {
				c := e.fanoutWithBase(run[k], bases[k], bound)
				s := patternScore(run[k], bound)
				if c < bestCost || (c == bestCost && s > bestScore) {
					best, bestCost, bestScore = k, c, s
				}
			}
			chosen := run[best]
			run = append(run[:best], run[best+1:]...)
			bases = append(bases[:best], bases[best+1:]...)
			out = append(out, chosen)
			for _, n := range []Node{chosen.S, chosen.P, chosen.O} {
				if n.IsVar() {
					bound[n.Var] = true
				}
			}
		}
		i = j
	}
	return out
}

// estimate returns the store's cardinality estimate for the pattern's
// constant positions.
func (e *engine) estimate(tp TriplePattern) int {
	ids, ok := e.constIDs(tp)
	if !ok {
		return 0
	}
	return e.st.EstimateCountIDs(ids[0], ids[1], ids[2])
}

// fanoutWithBase estimates how many solutions evaluating tp produces per
// input binding, given the variables bound by earlier elements. base is the
// exact index-range count over the constant positions (estimate; the
// reorder loop caches it per run); each variable position that is already
// bound by a join divides it by that position's distinct-value count
// (per-predicate when the predicate is constant, the dictionary size as an
// optimistic fallback otherwise), since a concrete join value selects
// ~1/distinct of the range.
func (e *engine) fanoutWithBase(tp TriplePattern, base float64, bound map[string]bool) float64 {
	if base == 0 {
		return 0
	}
	var card store.PredCardinality
	haveCard := false
	if !tp.P.IsVar() {
		if p, ok := tp.P.Term.(rdf.IRI); ok {
			card, haveCard = e.allCards()[p]
		}
	}
	div := func(perPred int) float64 {
		if haveCard && perPred > 0 {
			return float64(perPred)
		}
		if n := e.st.NumTerms(); n > 0 {
			return float64(n)
		}
		return 1
	}
	est := base
	if tp.S.IsVar() && bound[tp.S.Var] {
		est /= div(card.DistinctSubjects)
	}
	if tp.O.IsVar() && bound[tp.O.Var] {
		est /= div(card.DistinctObjects)
	}
	if tp.P.IsVar() && bound[tp.P.Var] {
		// No per-position stat for predicates; assume they are few.
		est /= float64(len(e.allCards()) + 1)
	}
	return est
}

// allCards returns the per-predicate cardinality table, fetching it once per
// query.
func (e *engine) allCards() map[rdf.IRI]store.PredCardinality {
	e.cardsOnce.Do(func() { e.cards = e.st.Cardinalities() })
	return e.cards
}

func collectVars(el GroupElem, bound map[string]bool) {
	switch el := el.(type) {
	case Bind:
		bound[el.Var] = true
	case Values:
		for _, v := range el.Vars {
			bound[v] = true
		}
	case Service:
		collectBindableVars(el.Inner, bound)
	}
}

// patternScore is the reorder tie-breaker: how many positions are bound,
// weighted S > O > P to favor the store's cheapest index scans.
func patternScore(tp TriplePattern, bound map[string]bool) int {
	score := 0
	isBound := func(n Node) bool { return !n.IsVar() || bound[n.Var] }
	if isBound(tp.S) {
		score += 4
	}
	if isBound(tp.O) {
		score += 2
	}
	if isBound(tp.P) {
		score++
	}
	return score
}

// cancelled returns the context's error once the context is done, nil
// otherwise.
func (e *engine) cancelled() error {
	return e.ctx.Err()
}

// evalOptional implements left join: bindings that match the inner group are
// extended; the rest pass through unchanged. Each input binding's inner
// evaluation is independent, so large inputs fan out to the worker pool.
func (e *engine) evalOptional(opt Optional, input []Binding) ([]Binding, error) {
	parts, err := parChunks(e, len(input), -1, nil, func(lo, hi int) ([]Binding, error) {
		var out []Binding
		for _, b := range input[lo:hi] {
			matched, err := e.evalGroup(opt.Inner, []Binding{b})
			if err != nil {
				return nil, err
			}
			if len(matched) > 0 {
				out = append(out, matched...)
			} else {
				out = append(out, b)
			}
		}
		return out, nil
	})
	if len(parts) == 1 {
		return parts[0], err // evaluated inline: nothing to join
	}
	return slices.Concat(parts...), err
}

func (e *engine) evalUnion(u Union, input []Binding) ([]Binding, error) {
	left, err := e.evalGroup(u.Left, input)
	if err != nil {
		return nil, err
	}
	right, err := e.evalGroup(u.Right, input)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

func (e *engine) evalBind(bi Bind, input []Binding) ([]Binding, error) {
	out := make([]Binding, 0, len(input))
	for _, b := range input {
		if _, already := b[bi.Var]; already {
			return nil, fmt.Errorf("sparql: BIND target ?%s already bound", bi.Var)
		}
		nb := b.clone()
		if t, err := evalExpr(bi.Expr, b); err == nil {
			// An erroring BIND expression leaves the variable unbound.
			nb[bi.Var] = t
		}
		out = append(out, nb)
	}
	return out, nil
}

// evalValues joins the inline data block with the current solutions.
func evalValues(v Values, input []Binding) []Binding {
	var out []Binding
	for _, b := range input {
		for _, row := range v.Rows {
			nb := b.clone()
			compatible := true
			for i, name := range v.Vars {
				if row[i] == nil {
					continue // UNDEF constrains nothing
				}
				if prev, ok := nb[name]; ok {
					if prev != row[i] {
						compatible = false
						break
					}
				} else {
					nb[name] = row[i]
				}
			}
			if compatible {
				out = append(out, nb)
			}
		}
	}
	return out
}
