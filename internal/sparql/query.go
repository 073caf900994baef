package sparql

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Results holds the outcome of a query.
type Results struct {
	// Form is the query form that produced the results.
	Form QueryForm
	// Vars are the projected column names, in order.
	Vars []string
	// Rows are the solution bindings (empty for ASK).
	Rows []Binding
	// Ask is the answer of an ASK query.
	Ask bool
}

// Exec parses and evaluates a SPARQL query against the store with default
// options (parallel BGP evaluation across runtime.NumCPU() workers).
func Exec(st store.Source, query string) (*Results, error) {
	return ExecOpts(st, query, Options{})
}

// ExecOpts parses and evaluates a SPARQL query with explicit options.
func ExecOpts(st store.Source, query string, opt Options) (*Results, error) {
	//lint:allow ctxflow compat wrapper: ExecCtx is the cancellable form
	return ExecCtx(context.Background(), st, query, opt)
}

// ExecCtx parses and evaluates a SPARQL query under a context: evaluation
// stops promptly (returning an error matching both ErrEval and ctx.Err())
// when the context is cancelled or its deadline expires. Parse failures match
// ErrParse; every other failure matches ErrEval.
func ExecCtx(ctx context.Context, st store.Source, query string, opt Options) (*Results, error) {
	var start time.Time
	if opt.Trace != nil {
		start = time.Now()
	}
	q, err := Parse(query)
	if opt.Trace != nil {
		opt.Trace.Add(nil, "parse").Set("", "", 0, 0, start)
	}
	if err != nil {
		return nil, err
	}
	return EvalCtx(ctx, st, q, opt)
}

// Eval evaluates a parsed query against the store with default options.
func Eval(st store.Source, q *Query) (*Results, error) {
	return EvalOpts(st, q, Options{})
}

// EvalOpts evaluates a parsed query against the store. Evaluation order and
// results are identical at every parallelism setting; see Options.
func EvalOpts(st store.Source, q *Query, opt Options) (*Results, error) {
	//lint:allow ctxflow compat wrapper: EvalCtx is the cancellable form
	return EvalCtx(context.Background(), st, q, opt)
}

// EvalCtx evaluates a parsed query under a context; see ExecCtx for the
// cancellation and error-classification contract.
func EvalCtx(ctx context.Context, st store.Source, q *Query, opt Options) (*Results, error) {
	res, err := evalWithEngine(newEngine(ctx, st, opt), q)
	if err != nil {
		return nil, wrapEval(err)
	}
	return res, nil
}

func evalWithEngine(e *engine, q *Query) (res *Results, err error) {
	execStrategy := "materialized"
	if e.trace != nil {
		execStart := time.Now()
		e.exec = e.trace.Add(nil, "execute")
		defer func() {
			e.exec.Set("", execStrategy, 0, resultRows(res), execStart)
		}()
	}
	// Early-termination fast paths: LIMIT-pushdown scans, the bounded
	// ORDER BY top-k heap, and first-solution ASK. They return exactly the
	// rows the materializing pipeline below would; see stream.go.
	if !e.noStream {
		if r, ok, ferr := e.evalStreamFast(q); ok {
			if e.met != nil {
				e.met.QueriesStreamed.Inc()
			}
			execStrategy = "streamed"
			return r, ferr
		}
	}
	if e.met != nil {
		e.met.QueriesMaterialized.Inc()
	}
	sols, err := e.evalGroup(q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	if q.Form == FormAsk {
		return &Results{Form: FormAsk, Ask: len(sols) > 0}, nil
	}

	grouped := len(q.GroupBy) > 0 || projectionHasAggregates(q)
	var rows []Binding
	var vars []string
	if grouped {
		rows, vars, err = evalGrouped(q, sols)
		if err != nil {
			return nil, err
		}
	} else {
		rows, vars, err = evalUngrouped(q, sols)
		if err != nil {
			return nil, err
		}
	}

	// ORDER BY; the hidden key columns are dropped after sorting.
	hidden := hiddenOrdNames(len(q.OrderBy))
	sortRows(rows, q.OrderBy, hidden)
	stripHidden(rows, hidden)

	// DISTINCT.
	if q.Distinct {
		rows = distinctRows(rows, vars)
	}
	rows = sliceOffsetLimit(rows, q.Offset, q.Limit)
	return &Results{Form: FormSelect, Vars: vars, Rows: rows}, nil
}

// resultRows counts a result's rows for the execute span (ASK counts its
// answer as 0/1).
func resultRows(r *Results) int {
	if r == nil {
		return 0
	}
	if r.Form == FormAsk {
		if r.Ask {
			return 1
		}
		return 0
	}
	return len(r.Rows)
}

// sliceOffsetLimit applies the OFFSET/LIMIT window (limit < 0 = no limit).
func sliceOffsetLimit(rows []Binding, offset, limit int) []Binding {
	if offset > 0 {
		if offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

func projectionHasAggregates(q *Query) bool {
	for _, item := range q.Projection {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch ex := e.(type) {
	case ExAggregate:
		return true
	case ExBinary:
		return exprHasAggregate(ex.Left) || exprHasAggregate(ex.Right)
	case ExUnary:
		return exprHasAggregate(ex.Expr)
	case ExCall:
		for _, a := range ex.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// evalUngrouped projects plain (non-aggregate) SELECT results. SELECT *
// columns are resolved statically (every variable the pattern can bind,
// sorted — see streamVars), so the header does not depend on which
// evaluation path ran or which rows a LIMIT happened to keep.
func evalUngrouped(q *Query, sols []Binding) ([]Binding, []string, error) {
	vars := streamVars(q)
	hidden := hiddenOrdNames(len(q.OrderBy))
	rows := make([]Binding, 0, len(sols))
	for _, s := range sols {
		rows = append(rows, projectSolution(q, vars, s, hidden))
	}
	return rows, vars, nil
}

// projectSolution builds one projected result row from a solution: the
// star or explicit projection, plus — when hidden names are supplied — the
// ORDER BY key values evaluated on the original solution and stashed under
// those names for sortRows.
func projectSolution(q *Query, vars []string, s Binding, hidden []string) Binding {
	row := Binding{}
	if q.Star {
		for _, v := range vars {
			if t, ok := s[v]; ok {
				row[v] = t
			}
		}
	} else {
		for _, item := range q.Projection {
			if item.Expr == nil {
				if t, ok := s[item.Var]; ok {
					row[item.Var] = t
				}
			} else if t, err := evalExpr(item.Expr, s); err == nil {
				row[item.Var] = t
			}
		}
	}
	for i := range hidden {
		if t, err := evalExpr(q.OrderBy[i].Expr, s); err == nil {
			row[hidden[i]] = t
		}
	}
	return row
}

// evalGrouped implements GROUP BY + aggregates + HAVING.
func evalGrouped(q *Query, sols []Binding) ([]Binding, []string, error) {
	type grp struct {
		key  []rdf.Term
		rows []Binding
	}
	groups := map[string]*grp{}
	var order []string
	for _, s := range sols {
		key := make([]rdf.Term, len(q.GroupBy))
		var sig strings.Builder
		for i, ge := range q.GroupBy {
			// Length-prefixed key components, for the same reason as
			// distinctRows: a bare joiner would let ("x|","y") and
			// ("x","|y") collide and merge two distinct groups.
			if t, err := evalExpr(ge, s); err == nil {
				key[i] = t
				ks := t.String()
				sig.WriteString(strconv.Itoa(len(ks)))
				sig.WriteByte(':')
				sig.WriteString(ks)
			} else {
				sig.WriteByte('~')
			}
		}
		g, ok := groups[sig.String()]
		if !ok {
			g = &grp{key: key}
			groups[sig.String()] = g
			order = append(order, sig.String())
		}
		g.rows = append(g.rows, s)
	}
	// Implicit single group for aggregate queries without GROUP BY — but only
	// when there are solutions; an empty input yields one empty group per the
	// SPARQL spec (COUNT(*) = 0).
	if len(q.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &grp{}
		order = append(order, "")
	}

	var vars []string
	for _, item := range q.Projection {
		vars = append(vars, item.Var)
	}

	hidden := hiddenOrdNames(len(q.OrderBy))
	var rows []Binding
	for _, sig := range order {
		g := groups[sig]
		// Representative binding carries the group key values.
		rep := Binding{}
		for i, ge := range q.GroupBy {
			if v, ok := ge.(ExVar); ok && g.key[i] != nil {
				rep[v.Name] = g.key[i]
			}
		}
		// HAVING.
		keep := true
		for _, h := range q.Having {
			t, err := evalAggExpr(h, g.rows, rep)
			if err != nil {
				keep = false
				break
			}
			v, ok := rdf.EffectiveBoolean(t)
			if !ok || !v {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := Binding{}
		for _, item := range q.Projection {
			var t rdf.Term
			var err error
			if item.Expr == nil {
				// A bare variable must be a group key.
				if v, ok := rep[item.Var]; ok {
					t = v
				} else {
					err = fmt.Errorf("sparql: ?%s is not a GROUP BY key", item.Var)
				}
			} else {
				t, err = evalAggExpr(item.Expr, g.rows, rep)
			}
			if err == nil && t != nil {
				row[item.Var] = t
			}
		}
		for i, key := range q.OrderBy {
			if t, err := evalAggExpr(key.Expr, g.rows, rep); err == nil {
				row[hidden[i]] = t
			}
		}
		rows = append(rows, row)
	}
	return rows, vars, nil
}

// hiddenOrdNames returns the engine-generated column names that carry ORDER
// BY key values through sorting, one per sort key. The NUL prefix cannot
// appear in a parsed variable name (the lexer accepts only [A-Za-z0-9_]),
// so a legal user variable like ?_ord0 can never collide with — nor be
// clobbered or deleted alongside — a hidden column.
func hiddenOrdNames(n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "\x00ord" + strconv.Itoa(i)
	}
	return out
}

// sortRows stable-sorts rows by the hidden key columns (hidden[i] holds the
// value of keys[i]). Per SPARQL's ordering, an unbound key sorts before any
// bound term (rdf.Compare treats nil as least); DESC reverses, putting
// unbound rows last.
func sortRows(rows []Binding, keys []OrderKey, hidden []string) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range keys {
			ti := rows[i][hidden[k]]
			tj := rows[j][hidden[k]]
			c := rdf.Compare(ti, tj)
			if key.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// stripHidden deletes exactly the engine-generated hidden sort columns from
// every row; user bindings — including names like ?_ord0 that a prefix
// match would catch — are untouched.
func stripHidden(rows []Binding, hidden []string) {
	if len(hidden) == 0 {
		return
	}
	for _, r := range rows {
		for _, h := range hidden {
			delete(r, h)
		}
	}
}

// distinctRows removes duplicate rows, keeping first occurrences. Dedup
// signatures are length-prefixed per column ("<len>:<term>", "~" for an
// unbound column), so a term whose lexical form contains a would-be
// separator can no longer alias a column boundary (with a bare "|" joiner,
// ("a|b","c") and ("a","b|c") collided and a distinct row was dropped).
func distinctRows(rows []Binding, vars []string) []Binding {
	seen := map[string]struct{}{}
	out := rows[:0:0]
	var sig strings.Builder
	for _, r := range rows {
		sig.Reset()
		for _, v := range vars {
			if t, ok := r[v]; ok {
				s := t.String()
				sig.WriteString(strconv.Itoa(len(s)))
				sig.WriteByte(':')
				sig.WriteString(s)
			} else {
				sig.WriteByte('~')
			}
		}
		if _, dup := seen[sig.String()]; !dup {
			seen[sig.String()] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}
