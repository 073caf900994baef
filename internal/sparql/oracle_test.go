package sparql

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// The differential tests' reference. The engine has one executor for a run
// of triple patterns (idjoin.go, over dictionary IDs) and one driver
// (stream.go) that may page it; what they are held to is the plainest
// evaluator there is, kept here and reached through one unexported engine
// field: a sequential term-space probe loop on Store.ForEach (runOracle),
// which also keeps the driver on its materialized source — no IDs, no pool,
// no row limit, no paging. The plan and the modifier chain are the
// engine's own, so the row order is comparable.

// termSpaceRun evaluates a run one pattern at a time, one binding at a time:
// substitute the bound variables, scan the store for the resulting term
// pattern under one read view, and unify every match.
func termSpaceRun(st *store.Store) func([]TriplePattern, []Binding) ([]Binding, error) {
	return func(run []TriplePattern, input []Binding) ([]Binding, error) {
		cur := input
		for _, tp := range run {
			var out []Binding
			for _, b := range cur {
				pat, vars := concretize(tp, b)
				st.ForEach(pat, func(t rdf.Triple) bool {
					if nb, ok := unify(b, vars, t); ok {
						out = append(out, nb)
					}
					return true
				})
			}
			cur = out
		}
		return cur, nil
	}
}

// concretize substitutes bound variables into the pattern, returning the
// store pattern and the residual variable names per position (empty = bound).
func concretize(tp TriplePattern, b Binding) (store.Pattern, [3]string) {
	var pat store.Pattern
	var vars [3]string
	resolve := func(n Node) (rdf.Term, string) {
		if !n.IsVar() {
			return n.Term, ""
		}
		if t, ok := b[n.Var]; ok {
			return t, ""
		}
		return nil, n.Var
	}
	pat.S, vars[0] = resolve(tp.S)
	pat.P, vars[1] = resolve(tp.P)
	pat.O, vars[2] = resolve(tp.O)
	return pat, vars
}

// unify binds residual variables to the matched triple, handling repeated
// variables (?x ?p ?x) by requiring equal terms.
func unify(b Binding, vars [3]string, t rdf.Triple) (Binding, bool) {
	nb := b.clone()
	for i, val := range [3]rdf.Term{t.S, t.P, t.O} {
		name := vars[i]
		if name == "" {
			continue
		}
		if prev, ok := nb[name]; ok {
			if prev != val {
				return nil, false
			}
			continue
		}
		nb[name] = val
	}
	return nb, true
}

// oracleExec answers q the reference way.
func oracleExec(t testing.TB, st *store.Store, q string) *Results {
	t.Helper()
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	e.runOracle = termSpaceRun(st)
	parsed, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	res, err := evalWithEngine(e, parsed)
	if err != nil {
		t.Fatalf("eval(%q): %v", q, err)
	}
	return res
}

// storeState is one physical arrangement of a dataset.
type storeState struct {
	name string
	st   *store.Store
}

// storeStates lays triples out the three ways a scan can meet them: all in
// the sorted base; the last quarter still in the unsorted delta; and all in
// the base with every seventh triple tombstoned (a different live set — each
// state is compared with the oracle on the same store, not with the others).
// Under 1024 delta entries or tombstones the store does not compact by
// itself.
func storeStates(t testing.TB, triples []rdf.Triple) []storeState {
	t.Helper()
	load := func(ts []rdf.Triple) *store.Store {
		st, err := store.Load(ts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	tail := min(len(triples)/4, 1000)
	delta := load(triples[:len(triples)-tail])
	for _, tr := range triples[len(triples)-tail:] {
		if err := delta.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	tomb := load(triples)
	for i := 0; i < len(triples) && i < 7000; i += 7 {
		tomb.Delete(triples[i])
	}
	return []storeState{{"compacted", load(triples)}, {"delta", delta}, {"tombstoned", tomb}}
}

// checkAgainstOracle is the executor differential: q through EvalCtx and
// through Stream at parallelism 1 and 4 must give the oracle's header, rows
// and row order.
func checkAgainstOracle(t *testing.T, st *store.Store, q string) {
	t.Helper()
	want := oracleExec(t, st, q)
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		opt := Options{Parallelism: par}
		got, err := EvalCtx(context.Background(), st, parsed, opt)
		if err != nil {
			t.Fatalf("EvalCtx par=%d %q: %v", par, q, err)
		}
		if !reflect.DeepEqual(got.Vars, want.Vars) || got.Ask != want.Ask {
			t.Errorf("EvalCtx par=%d %q: vars %v ask %v, want %v %v", par, q, got.Vars, got.Ask, want.Vars, want.Ask)
		}
		if d := firstDiff(want.Rows, got.Rows); d != "" {
			t.Errorf("EvalCtx par=%d %q: %s", par, q, d)
		}

		stm := PrepareStreamQuery(context.Background(), st, parsed, opt)
		if parsed.Form == FormAsk {
			if ans, err := stm.Ask(); err != nil || ans != want.Ask {
				t.Errorf("Stream.Ask par=%d %q = %v, %v; want %v", par, q, ans, err, want.Ask)
			}
			continue
		}
		var rows []Binding
		if err := stm.Run(func(r Binding) bool {
			rows = append(rows, r)
			return true
		}); err != nil {
			t.Fatalf("Stream.Run par=%d %q: %v", par, q, err)
		}
		if !reflect.DeepEqual(stm.Vars(), want.Vars) {
			t.Errorf("Stream par=%d %q: vars %v, want %v", par, q, stm.Vars(), want.Vars)
		}
		if d := firstDiff(want.Rows, rows); d != "" {
			t.Errorf("Stream.Run par=%d %q: %s", par, q, d)
		}
	}
}

// firstDiff describes where got leaves want (rows and order), "" when equal.
func firstDiff(want, got []Binding) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if !reflect.DeepEqual(want[i], got[i]) {
			return fmt.Sprintf("row %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("got %d rows, want %d", len(got), len(want))
	}
	return ""
}
