package sparql

import (
	"context"
	"fmt"
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

// EvalCtx evaluates a parsed query under a context; see ExecCtx for the
// cancellation and error-classification contract.
func EvalCtx(ctx context.Context, st store.Source, q *Query, opt Options) (*Results, error) {
	res, err := evalWithEngine(newEngine(ctx, st, opt), q)
	if err != nil {
		return nil, wrapEval(err)
	}
	return res, nil
}

// evalWithEngine is the query driver (stream.go) with its rows collected
// into Results, each as a Binding of its bound columns; ASK's answer is
// whether the chain emitted its one row.
func evalWithEngine(e *engine, q *Query) (*Results, error) {
	vars := streamVars(q)
	var rows []Binding
	collect := func(row []rdf.Term) bool {
		rows = append(rows, rowBinding(vars, row))
		return true
	}
	if err := e.execute(q, collect); err != nil {
		return nil, err
	}
	if q.Form == FormAsk {
		return &Results{Form: FormAsk, Ask: len(rows) > 0}, nil
	}
	return &Results{Form: FormSelect, Vars: vars, Rows: rows}, nil
}

// grouped reports whether q's solutions pass through the group stage:
// GROUP BY, or aggregates in the projection (one implicit group).
func grouped(q *Query) bool {
	if len(q.GroupBy) > 0 {
		return true
	}
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

// evalGrouped is the chain's group stage: it partitions the solutions by
// their GROUP BY key (one implicit group for aggregates without GROUP BY)
// and hands next, in first-seen group order, one projected row per group
// that passes HAVING, with its ORDER BY keys evaluated over the group.
func evalGrouped(q *Query, cols resultCols, sols []Binding, next func(entry) bool) {
	type grp struct {
		key  []rdf.Term
		rows []Binding
	}
	groups := map[string]*grp{}
	var order []string
	var sig strings.Builder
	for _, s := range sols {
		key := make([]rdf.Term, len(q.GroupBy))
		sig.Reset()
		for i, ge := range q.GroupBy {
			if t, err := evalExpr(ge, s); err == nil {
				key[i] = t
			}
			writeSig(&sig, key[i])
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

	for _, sig := range order {
		g := groups[sig]
		// Representative binding carries the group key values.
		rep := Binding{}
		for i, ge := range q.GroupBy {
			if v, ok := ge.(ExVar); ok && g.key[i] != nil {
				rep[v.Name] = g.key[i]
			}
		}
		if !having(q, g.rows, rep) {
			continue
		}
		row := make([]rdf.Term, len(cols.vars))
		for i, item := range q.Projection {
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
			if err == nil {
				row[i] = t
			}
		}
		cols.settle(row)
		keys := sortKeys(q.OrderBy, func(e Expr) (rdf.Term, error) { return evalAggExpr(e, g.rows, rep) })
		if !next(entry{row: row, keys: keys}) {
			return
		}
	}
}

// having reports whether a group passes every HAVING condition.
func having(q *Query, rows []Binding, rep Binding) bool {
	for _, h := range q.Having {
		t, err := evalAggExpr(h, rows, rep)
		if err != nil {
			return false
		}
		if v, ok := rdf.EffectiveBoolean(t); !ok || !v {
			return false
		}
	}
	return true
}

// writeSig appends one length-prefixed signature component ("<len>:<term>",
// "~" for unbound) for GROUP BY keys and DISTINCT rows: with a bare joiner
// a term whose lexical form contains the separator could alias a column
// boundary — ("a|b","c") and ("a","b|c") would collide.
func writeSig(sig *strings.Builder, t rdf.Term) {
	if t == nil {
		sig.WriteByte('~')
		return
	}
	s := t.String()
	sig.WriteString(strconv.Itoa(len(s)))
	sig.WriteByte(':')
	sig.WriteString(s)
}
