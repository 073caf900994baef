package sparql

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// scannedBy runs q and returns its results with the index entries its
// pattern executors visited (Metrics.MatchesScanned) — the observable that
// proves LIMIT pushdown actually stops scanning instead of just truncating
// a full result.
func scannedBy(t *testing.T, src store.Source, q string, opt Options) (*Results, uint64) {
	t.Helper()
	opt.Metrics = NewMetrics(obs.NewRegistry())
	res := execOpts(t, src, q, opt)
	return res, opt.Metrics.MatchesScanned.Value()
}

// streamStore builds a dataset big enough that full evaluation is clearly
// distinguishable from an early-terminated scan: n entities, each with a
// value triple and a link triple.
func streamStore(t testing.TB, n int) *store.Store {
	t.Helper()
	triples := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		e := rdf.IRI(fmt.Sprintf("http://s/e%d", i))
		triples = append(triples,
			rdf.Triple{S: e, P: "http://s/value", O: rdf.NewInteger(int64(i % 1000))},
			rdf.Triple{S: e, P: "http://s/link", O: rdf.IRI(fmt.Sprintf("http://s/e%d", (i+1)%n))},
		)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// execOpts evaluates and fails the test on error.
func execOpts(t *testing.T, src store.Source, q string, opt Options) *Results {
	t.Helper()
	res, err := ExecCtx(context.Background(), src, q, opt)
	if err != nil {
		t.Fatalf("ExecCtx(%q): %v", q, err)
	}
	return res
}

// TestSolutionModifierMatrix is the differential grid over solution
// modifiers: every query shape, in every store state, must return the
// oracle's rows in the oracle's order at parallelism 1 and 4, from EvalCtx
// (early-termination paths included) and from Stream.Run.
func TestSolutionModifierMatrix(t *testing.T) {
	states := storeStates(t, testStore(t).Triples())
	queries := []struct {
		name, q string
	}{
		{"limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 2`},
		{"limit-zero", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 0`},
		{"limit-zero-orderby", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 0`},
		{"offset-past-end", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } OFFSET 50`},
		{"offset-past-end-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 2 OFFSET 50`},
		{"offset-no-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } OFFSET 1`},
		{"limit-offset", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 1 OFFSET 1`},
		{"orderby-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 2`},
		{"orderby-desc-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) LIMIT 2`},
		{"orderby-desc-limit-offset", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1`},
		{"orderby-expr-limit", `PREFIX ex: <http://example.org/> SELECT ?c WHERE { ?c ex:population ?pop } ORDER BY DESC(?pop) LIMIT 1`},
		{"distinct-orderby-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } ORDER BY ?q LIMIT 2`},
		{"distinct-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } LIMIT 2`},
		{"join-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n ?m WHERE { ?p foaf:knows ?q . ?p foaf:name ?n . ?q foaf:name ?m } LIMIT 2`},
		{"filter-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n ; foaf:age ?a . FILTER(?a > 26) } LIMIT 1`},
		{"optional-orderby", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?s ?pop WHERE { ?s a ?t . OPTIONAL { ?s ex:population ?pop } } ORDER BY ?pop ?s LIMIT 4`},
		{"optional-orderby-desc", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?s ?pop WHERE { ?s a ?t . OPTIONAL { ?s ex:population ?pop } } ORDER BY DESC(?pop) ?s LIMIT 4`},
		{"union-limit", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x WHERE { { ?x a foaf:Person } UNION { ?x a ex:City } } LIMIT 3`},
		{"values-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?p ?n WHERE { VALUES ?n { "Alice" "Carol" } ?p foaf:name ?n } LIMIT 1`},
		{"bind-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n ?twice WHERE { ?p foaf:age ?a ; foaf:name ?n . BIND(?a * 2 AS ?twice) } LIMIT 2`},
		{"expr-projection-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT (?a + 1 AS ?next) WHERE { ?p foaf:age ?a } ORDER BY ?a LIMIT 2`},
		{"ask", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?p foaf:name "Carol" }`},
		{"ask-no-match", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?p foaf:name "Nobody" }`},
		{"join-no-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n ?m WHERE { ?p foaf:knows ?q . ?p foaf:name ?n . ?q foaf:name ?m }`},
		{"groupby-orderby-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?p (COUNT(?q) AS ?n) WHERE { ?p foaf:knows ?q } GROUP BY ?p ORDER BY DESC(COUNT(?q)) ?p LIMIT 1`},
		{"having-orderby", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?q (COUNT(?p) AS ?n) WHERE { ?p foaf:knows ?q } GROUP BY ?q HAVING (COUNT(?p) >= 1) ORDER BY DESC(?q)`},
		{"orderby-ties-no-limit", `SELECT ?s ?t WHERE { ?s a ?t } ORDER BY ?t`},
		{"orderby-offset-no-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) OFFSET 1`},
		{"distinct-no-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q }`},
		{"ask-union", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { { ?x a foaf:Person } UNION { ?x a ex:City } }`},
		{"ask-leading-optional", `PREFIX ex: <http://example.org/> ASK { OPTIONAL { ?s ex:population ?pop } ?s a ex:City }`},
	}
	// The two ASK shapes must exercise the materialized source.
	for _, q := range queries[len(queries)-2:] {
		if parsed, err := Parse(q.q); err != nil || planStream(parsed) {
			t.Fatalf("%s: want a parsed query the paged source refuses (err %v)", q.name, err)
		}
	}
	for _, state := range states {
		for _, tc := range queries {
			t.Run(state.name+"/"+tc.name, func(t *testing.T) {
				checkAgainstOracle(t, state.st, tc.q)
			})
		}
	}
}

// TestModifierChainRows pins the modifier chain by hand. The grid above
// compares the paged source with the oracle's, but the oracle runs this same
// chain, so the chain's own answers are checked here against expectations
// worked out from testData.
func TestModifierChainRows(t *testing.T) {
	st := testStore(t)
	label := func(r Binding, col string) string {
		switch v := r[col].(type) {
		case rdf.Literal:
			return v.Lexical
		case rdf.IRI:
			return v.LocalName()
		}
		return fmt.Sprint(r[col])
	}
	const pre = `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> `
	for _, tc := range []struct {
		q, col string
		want   []string
	}{
		{`SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 0`, "n", nil},
		{`SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 0`, "n", nil},
		{`SELECT ?n WHERE { ?p foaf:name ?n } OFFSET 50`, "n", nil},
		{`SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1`, "n", []string{"Bob", "Alice"}},
		{`SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) OFFSET 1`, "n", []string{"Bob", "Alice"}},
		{`SELECT ?c WHERE { ?c ex:population ?pop } ORDER BY DESC(?pop) LIMIT 1`, "c", []string{"athens"}},
		{`SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } ORDER BY DESC(?q) LIMIT 2`, "q", []string{"carol", "bob"}},
		{`SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } ORDER BY ?q`, "q", []string{"bob", "carol"}},
		{`SELECT ?p (COUNT(?q) AS ?n) WHERE { ?p foaf:knows ?q } GROUP BY ?p ORDER BY DESC(COUNT(?q)) LIMIT 1`, "p", []string{"alice"}},
		{`SELECT ?p (COUNT(?q) AS ?n) WHERE { ?p foaf:knows ?q } GROUP BY ?p HAVING (COUNT(?q) >= 1) ORDER BY COUNT(?q)`, "p", []string{"bob", "alice"}},
		{`SELECT ?q (COUNT(?p) AS ?n) WHERE { ?p foaf:knows ?q } GROUP BY ?q HAVING (COUNT(?p) >= 2)`, "q", []string{"carol"}},
	} {
		res := execOpts(t, st, pre+tc.q, Options{Parallelism: 1})
		var got []string
		for _, r := range res.Rows {
			got = append(got, label(r, tc.col))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.q, got, tc.want)
		}
	}
	for q, want := range map[string]bool{
		`ASK { { ?x a foaf:Person } UNION { ?x a ex:City } }`:     true,
		`ASK { OPTIONAL { ?s ex:population ?pop } ?s a ex:City }`: true,
		`ASK { ?p foaf:name "Nobody" }`:                           false,
	} {
		if res := execOpts(t, st, pre+q, Options{Parallelism: 1}); res.Ask != want {
			t.Errorf("%s = %v, want %v", q, res.Ask, want)
		}
	}
}

// TestOrderByKeepsArrivalOrder: ORDER BY over tied keys, with and without a
// LIMIT, gives the rows of the unordered query stable-sorted by the key —
// on enough rows that an unstable sort or heap would show.
func TestOrderByKeepsArrivalOrder(t *testing.T) {
	st := streamStore(t, 3000) // ?o cycles mod 1000: every key three times
	all := execOpts(t, st, `SELECT ?s ?o WHERE { ?s <http://s/value> ?o }`, Options{Parallelism: 1}).Rows
	sort.SliceStable(all, func(i, j int) bool { return rdf.Compare(all[i]["o"], all[j]["o"]) < 0 })
	for q, want := range map[string][]Binding{
		`SELECT ?s ?o WHERE { ?s <http://s/value> ?o } ORDER BY ?o`:          all,
		`SELECT ?s ?o WHERE { ?s <http://s/value> ?o } ORDER BY ?o LIMIT 40`: all[:40],
	} {
		got := execOpts(t, st, q, Options{Parallelism: 1})
		if d := firstDiff(want, got.Rows); d != "" {
			t.Errorf("%s: %s", q, d)
		}
	}
}

// TestLimitPushdownStopsScanning is the early-termination guarantee: a
// LIMIT 10 over a six-figure solution space must visit a small constant
// number of triples, not the whole index — at every parallelism setting.
func TestLimitPushdownStopsScanning(t *testing.T) {
	st := streamStore(t, 50000) // 100k triples
	q := `SELECT ?s ?o WHERE { ?s <http://s/value> ?o } LIMIT 10`
	for _, par := range []int{1, 4} {
		res, pushed := scannedBy(t, st, q, Options{Parallelism: par})
		if len(res.Rows) != 10 {
			t.Fatalf("par=%d: got %d rows, want 10", par, len(res.Rows))
		}

		// The same pattern without LIMIT needs every solution: the
		// paged source's full scan.
		_, full := scannedBy(t, st, `SELECT ?s ?o WHERE { ?s <http://s/value> ?o }`, Options{Parallelism: par})
		if !reflect.DeepEqual(res.Rows, oracleExec(t, st, q).Rows) {
			t.Fatalf("par=%d: pushdown rows differ from the oracle", par)
		}
		if pushed*10 > full {
			t.Errorf("par=%d: pushdown visited %d triples, materializing %d — want ≥10x fewer", par, pushed, full)
		}
	}
}

// TestLimitPushdownJoinCapped: with a join tail, the budget rides into the
// capped parallel executor; the scan side still terminates early.
func TestLimitPushdownJoinCapped(t *testing.T) {
	st := streamStore(t, 20000)
	q := `SELECT ?s ?v WHERE { ?s <http://s/link> ?o . ?o <http://s/value> ?v } LIMIT 7`
	for _, par := range []int{1, 8} {
		res, pushed := scannedBy(t, st, q, Options{Parallelism: par})
		if len(res.Rows) != 7 {
			t.Fatalf("par=%d: got %d rows, want 7", par, len(res.Rows))
		}
		ref := oracleExec(t, st, q)
		if !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Fatalf("par=%d: capped join rows differ from the oracle", par)
		}
		if pushed > 4000 { // full evaluation visits ≥40k
			t.Errorf("par=%d: join pushdown visited %d triples, want early termination", par, pushed)
		}
	}
}

// TestNestedGroupPushdown: redundant nesting must not defeat the
// early-termination plan — `{ { pattern } } LIMIT k` short-circuits like
// its un-nested form (and still matches the materializing rows), including
// with filters at both levels.
func TestNestedGroupPushdown(t *testing.T) {
	st := streamStore(t, 50000)
	for _, q := range []string{
		`SELECT ?s ?o WHERE { { ?s <http://s/value> ?o } } LIMIT 10`,
		`SELECT ?s ?o WHERE { { { ?s <http://s/value> ?o FILTER(?o >= 0) } } FILTER(?o < 1000) } LIMIT 10`,
	} {
		res, v := scannedBy(t, st, q, Options{Parallelism: 1})
		if len(res.Rows) != 10 {
			t.Fatalf("%s: got %d rows, want 10", q, len(res.Rows))
		}
		if v > 1000 {
			t.Errorf("%s: visited %d triples, want early termination", q, v)
		}
		ref := oracleExec(t, st, q)
		if !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Errorf("%s: nested pushdown rows differ from the oracle", q)
		}
	}
	// A group with no top-level pattern at all must not claim incremental
	// delivery.
	stm, err := PrepareStream(context.Background(), st,
		`SELECT ?s WHERE { { ?s <http://s/value> ?o } { ?s <http://s/link> ?t } }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stm.Incremental() {
		t.Error("two sibling subgroups have no suspendable scan; Incremental must be false")
	}
}

// TestHugeLimitNoOverflow: offset+limit near MaxInt must not wrap negative
// and silently return an empty result — both window shapes must match the
// materializing path.
func TestHugeLimitNoOverflow(t *testing.T) {
	st := testStore(t)
	for _, q := range []string{
		fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT %d OFFSET 1`, int64(^uint(0)>>1)),
		fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT %d OFFSET 1`, int64(^uint(0)>>1)),
	} {
		got := execOpts(t, st, q, Options{Parallelism: 1})
		ref := oracleExec(t, st, q)
		if len(got.Rows) != len(ref.Rows) || len(got.Rows) == 0 {
			t.Errorf("%s: streamed %d rows, materialized %d (want equal, non-zero)", q, len(got.Rows), len(ref.Rows))
		}
	}
}

// TestSubgroupPrefixNotIncremental: a pattern-bearing subgroup scheduled
// before the first top-level pattern is a full scan of its own, so the
// query must not be planned (or advertised) as incremental — but results
// still match.
func TestSubgroupPrefixNotIncremental(t *testing.T) {
	st := streamStore(t, 1000)
	q := `SELECT ?s ?v ?t WHERE { { ?s <http://s/value> ?v } ?s <http://s/link> ?t } LIMIT 3`
	stm, err := PrepareStream(context.Background(), st, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stm.Incremental() {
		t.Error("subgroup prefix forces full evaluation; Incremental must be false")
	}
	got := execOpts(t, st, q, Options{Parallelism: 1})
	ref := oracleExec(t, st, q)
	if !reflect.DeepEqual(got.Rows, ref.Rows) {
		t.Errorf("rows differ: %v vs %v", got.Rows, ref.Rows)
	}
}

// TestAskShortCircuits: ASK stops at the first matching solution.
func TestAskShortCircuits(t *testing.T) {
	st := streamStore(t, 50000)
	res, v := scannedBy(t, st, `ASK { ?s <http://s/value> ?o }`, Options{Parallelism: 1})
	if !res.Ask {
		t.Fatal("ask = false, want true")
	}
	if v > 16 {
		t.Errorf("ASK visited %d triples, want a handful", v)
	}
}

// TestTopKOrderByLimit: ORDER BY + LIMIT keeps offset+limit candidates in a
// heap in place of the full sorted set; the rows must be the oracle's.
// (Scanning is still complete — ORDER BY needs every solution; memory
// behavior is exercised by the 100k benchmark.)
func TestTopKOrderByLimit(t *testing.T) {
	st := streamStore(t, 5000)
	for _, q := range []string{
		`SELECT ?s ?o WHERE { ?s <http://s/value> ?o } ORDER BY ?o ?s LIMIT 5`,
		`SELECT ?s ?o WHERE { ?s <http://s/value> ?o } ORDER BY DESC(?o) ?s LIMIT 5 OFFSET 3`,
		// Ties everywhere (o cycles mod 1000): the stable tiebreak must match.
		`SELECT ?s WHERE { ?s <http://s/value> ?o } ORDER BY ?o LIMIT 20`,
	} {
		checkAgainstOracle(t, st, q)
	}
}

// TestUnboundSortsFirstAsc pins SPARQL's ordering of unbound variables: an
// unbound sort key orders before every bound term under ASC, and therefore
// after every bound term under DESC — on the serial and parallel paths.
func TestUnboundOrderBy(t *testing.T) {
	st := testStore(t)
	base := `PREFIX ex: <http://example.org/>
SELECT ?s ?pop WHERE { ?s a ?t . OPTIONAL { ?s ex:population ?pop } } ORDER BY %s LIMIT 20`
	for _, par := range []int{1, 4} {
		for name, exec := range map[string]func(*testing.T, store.Source, string, Options) *Results{
			"engine": execOpts,
			"oracle": func(t *testing.T, _ store.Source, q string, _ Options) *Results { return oracleExec(t, st, q) },
		} {
			opt := Options{Parallelism: par}
			asc := exec(t, st, fmt.Sprintf(base, "?pop ?s"), opt)
			if len(asc.Rows) == 0 {
				t.Fatal("no rows")
			}
			// ASC: all unbound rows first, then bound ascending.
			seenBound := false
			var prev rdf.Term
			for i, r := range asc.Rows {
				pop, bound := r["pop"]
				if bound {
					seenBound = true
					if prev != nil && rdf.Compare(prev, pop) > 0 {
						t.Errorf("asc row %d: %v after %v", i, pop, prev)
					}
					prev = pop
				} else if seenBound {
					t.Errorf("asc row %d: unbound after bound (par=%d %s)", i, par, name)
				}
			}
			if !seenBound {
				t.Fatal("expected some bound pop values")
			}
			// DESC: bound descending first, unbound rows last.
			desc := exec(t, st, fmt.Sprintf(base, "DESC(?pop) ?s"), opt)
			seenUnbound := false
			prev = nil
			for i, r := range desc.Rows {
				pop, bound := r["pop"]
				if !bound {
					seenUnbound = true
				} else {
					if seenUnbound {
						t.Errorf("desc row %d: bound after unbound (par=%d %s)", i, par, name)
					}
					if prev != nil && rdf.Compare(prev, pop) < 0 {
						t.Errorf("desc row %d: %v after %v", i, pop, prev)
					}
					prev = pop
				}
			}
			if !seenUnbound {
				t.Fatal("expected some unbound pop values")
			}
		}
	}
}

// TestDistinctSeparatorCollision is the regression for the bare-"|" dedup
// signature: rows ("a|b","c") and ("a","b|c") are distinct and must both
// survive DISTINCT.
func TestDistinctSeparatorCollision(t *testing.T) {
	triples := []rdf.Triple{
		{S: rdf.IRI("http://x/r1"), P: "http://x/p", O: rdf.NewLiteral("a|b")},
		{S: rdf.IRI("http://x/r1"), P: "http://x/q", O: rdf.NewLiteral("c")},
		{S: rdf.IRI("http://x/r2"), P: "http://x/p", O: rdf.NewLiteral("a")},
		{S: rdf.IRI("http://x/r2"), P: "http://x/q", O: rdf.NewLiteral("b|c")},
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	res := execOpts(t, st, `SELECT DISTINCT ?a ?b WHERE { ?s <http://x/p> ?a . ?s <http://x/q> ?b }`, Options{Parallelism: 1})
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT dropped a row: got %d rows %v, want 2", len(res.Rows), res.Rows)
	}
	// And the unbound marker can't alias a literal either.
	res = execOpts(t, st, `SELECT DISTINCT ?a ?c WHERE { ?s <http://x/p> ?a . OPTIONAL { ?s <http://x/none> ?c } }`, Options{Parallelism: 1})
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

// TestUserOrdVariableSurvives is the regression for the "_ord" prefix
// match: a user variable legally named ?_ord0 must neither be clobbered by
// the hidden sort columns nor stripped from the results.
func TestUserOrdVariableSurvives(t *testing.T) {
	st := testStore(t)
	res := execOpts(t, st, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?_ord0 WHERE { ?p foaf:name ?_ord0 ; foaf:age ?a } ORDER BY DESC(?a)`, Options{Parallelism: 1})
	if got, want := res.Vars, []string{"_ord0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("vars = %v, want %v", got, want)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	// Ordered by DESC(age): Carol 35, Alice 30, Bob 25 — and each row must
	// carry the user's ?_ord0 binding (the name, not the hidden age key).
	want := []string{"Carol", "Alice", "Bob"}
	for i, r := range res.Rows {
		term, ok := r["_ord0"]
		if !ok {
			t.Fatalf("row %d: ?_ord0 was stripped: %v", i, r)
		}
		lit, ok := term.(rdf.Literal)
		if !ok || lit.Lexical != want[i] {
			t.Errorf("row %d: ?_ord0 = %v, want %q", i, term, want[i])
		}
		if len(r) != 1 {
			t.Errorf("row %d: hidden columns leaked: %v", i, r)
		}
	}
}

// TestStreamStopEarly: the consumer returning false stops evaluation
// without error (the client-disconnect path).
func TestStreamStopEarly(t *testing.T) {
	st := streamStore(t, 10000)
	met := NewMetrics(obs.NewRegistry())
	stm, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE { ?s <http://s/value> ?o }`, Options{Parallelism: 1, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	if !stm.Incremental() {
		t.Fatal("plain scan should stream incrementally")
	}
	n := 0
	if err := stm.Run(func(Binding) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("delivered %d rows, want 3", n)
	}
	if v := met.MatchesScanned.Value(); v > 16 {
		t.Errorf("visited %d triples after consumer stop, want a handful", v)
	}
}

// TestStreamEmitCanWriteStore: streamed rows are delivered with no store
// lock held, so a consumer may write to the store mid-stream — the
// previous driver emitted from inside the scan's read lock, where this
// write would deadlock (RWMutexes queue the writer behind the held read
// lock and the nested operations behind the writer).
func TestStreamEmitCanWriteStore(t *testing.T) {
	st := streamStore(t, 200)
	donec := make(chan error, 1)
	go func() {
		stm, err := PrepareStream(context.Background(), st,
			`SELECT ?s ?v WHERE { ?s <http://s/link> ?o . ?o <http://s/value> ?v }`, Options{Parallelism: 1})
		if err != nil {
			donec <- err
			return
		}
		rows := 0
		donec <- stm.Run(func(Binding) bool {
			rows++
			if rows == 1 {
				// A write from the consumer: only safe because no scan
				// lock is held during emission.
				if err := st.Add(rdf.Triple{
					S: rdf.IRI("http://s/mid-stream"), P: "http://s/value", O: rdf.NewInteger(1),
				}); err != nil {
					t.Error(err)
				}
			}
			return rows < 50
		})
	}()
	select {
	case err := <-donec:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("streaming query deadlocked against its own consumer's write")
	}
}

// TestStreamConcurrentWriters: a join-shaped streaming query makes
// progress while writers hammer the store from another goroutine.
func TestStreamConcurrentWriters(t *testing.T) {
	st := streamStore(t, 5000)
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if err := st.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://s/w%d", i)), P: "http://s/other", O: rdf.NewInteger(int64(i)),
			}); err != nil {
				writerErr = err
				return
			}
		}
	}()
	donec := make(chan error, 1)
	go func() {
		stm, err := PrepareStream(context.Background(), st,
			`SELECT ?s ?v WHERE { ?s <http://s/link> ?o . ?o <http://s/value> ?v } LIMIT 500`, Options{Parallelism: 4})
		if err != nil {
			donec <- err
			return
		}
		donec <- stm.Run(func(Binding) bool { return true })
	}()
	select {
	case err := <-donec:
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if writerErr != nil {
			t.Fatal(writerErr)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("streaming query deadlocked against concurrent writers")
	}
}

// compactingSource writes to the store and compacts it once the driver has
// decoded `after` pages (it calls Terms once a page), then once per page
// again when every is set: a writer crossing the merge threshold mid-stream.
// Each write deletes a matching triple the scan has not reached yet and adds
// a matching triple, so a scan that read the live store would miss the one
// and meet the other.
type compactingSource struct {
	*store.Store
	after  int
	every  bool
	pages  int
	writes int
}

func (c *compactingSource) Terms(ids []store.ID) []rdf.Term {
	out := c.Store.Terms(ids)
	if c.pages++; c.pages >= c.after && (c.every || c.writes == 0) {
		c.writes++
		gone := 1000 + 2 + c.writes // a value the first page does not reach
		if !c.Store.Delete(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://s/e%d", gone)), P: "http://s/value", O: rdf.NewInteger(int64(gone % 1000))}) {
			panic("compactingSource: nothing to delete")
		}
		if err := c.Store.Add(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://s/late%d", c.writes)), P: "http://s/value", O: rdf.NewInteger(int64(5000 + c.writes))}); err != nil {
			panic(err)
		}
		c.Store.Compact()
	}
	return out
}

// compactionRows runs q over a store written and compacted after the first
// page, or after every page when every is set — buffered (EvalCtx) or live
// (Stream.Run) — and checks that nothing a paged query returns changes: the
// oracle's rows for the store as it was when the run was taken, with no
// error, from the paged source.
func compactionRows(t *testing.T, q string, every, live bool) {
	t.Helper()
	st := streamStore(t, 2000)
	want := oracleExec(t, st, q).Rows
	src := &compactingSource{Store: st, after: 1, every: every}
	met := NewMetrics(obs.NewRegistry())
	opt := Options{Parallelism: 1, Metrics: met}
	var got []Binding
	if live {
		stm, err := PrepareStream(context.Background(), src, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := stm.Run(func(b Binding) bool { got = append(got, b); return true }); err != nil {
			t.Fatal(err)
		}
	} else {
		got = execOpts(t, src, q, opt).Rows
	}
	if src.writes == 0 || (every && src.writes < 3) {
		t.Fatalf("the store was written %d times, want once after the first page or after every page", src.writes)
	}
	if d := firstDiff(want, got); d != "" {
		t.Fatalf("%d writes: %s", src.writes, d)
	}
	if s, m := met.QueriesStreamed.Value(), met.QueriesMaterialized.Value(); s != 1 || m != 0 {
		t.Fatalf("QueriesStreamed=%d QueriesMaterialized=%d, want the paged source", s, m)
	}
}

// TestStreamRestartsOnCompaction: a buffered query on the paged source
// beside a compaction needs no restart — it returns exactly the rows of the
// run it took.
func TestStreamRestartsOnCompaction(t *testing.T) {
	for _, every := range []bool{false, true} {
		t.Run(fmt.Sprintf("every=%v", every), func(t *testing.T) {
			compactionRows(t, `SELECT ?s ?v WHERE { ?s <http://s/value> ?v } LIMIT 1000`, every, false)
		})
	}
}

// TestStreamRunAbortsAfterDeliveryOnCompaction: a live Stream.Run that has
// delivered rows when the store compacts no longer aborts — it completes
// with every row of its run.
func TestStreamRunAbortsAfterDeliveryOnCompaction(t *testing.T) {
	for _, every := range []bool{false, true} {
		t.Run(fmt.Sprintf("every=%v", every), func(t *testing.T) {
			compactionRows(t, `SELECT ?s ?v WHERE { ?s <http://s/value> ?v }`, every, true)
		})
	}
}

// TestStreamAPIForms: form mismatches error, ASK streams, Incremental is
// false for shapes that must materialize.
func TestStreamAPIForms(t *testing.T) {
	st := testStore(t)
	sel, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Ask(); err == nil {
		t.Error("Ask on SELECT should error")
	}
	ask, err := PrepareStream(context.Background(), st, `ASK { ?s ?p ?o }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ask.Run(func(Binding) bool { return true }); err == nil {
		t.Error("Run on ASK should error")
	}
	ans, err := ask.Ask()
	if err != nil || !ans {
		t.Errorf("Ask = %v, %v; want true, nil", ans, err)
	}
	ordered, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ordered.Incremental() {
		t.Error("ORDER BY must not report incremental delivery")
	}
	if _, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE {`, Options{}); err == nil {
		t.Error("parse error should surface from PrepareStream")
	}
}

// TestProbeLimitMatchesSequential: the probe strategy under a row limit
// returns exactly the first limit rows of the unlimited sequential
// evaluation, inline and through the pool.
func TestProbeLimitMatchesSequential(t *testing.T) {
	st := streamStore(t, 2000)
	// One input binding per entity, joined to its value triple.
	var input []Binding
	for i := 0; i < 2000; i++ {
		input = append(input, Binding{"s": rdf.IRI(fmt.Sprintf("http://s/e%d", i))})
	}
	run := []TriplePattern{{
		S: Node{Var: "s"},
		P: Node{Term: rdf.IRI("http://s/value")},
		O: Node{Var: "o"},
	}}
	want, err := termSpaceRun(st)(run, input)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 1, 17, 500, 5000} {
		for _, par := range []int{1, 8} {
			e := newEngine(context.Background(), st, Options{Parallelism: par})
			r, rows := e.newPatternRun(run, input)
			ps, _ := r.positions(run[0])
			out, err := e.idProbe(ps, rows, limit)
			if err != nil {
				t.Fatal(err)
			}
			if d := firstDiff(want[:min(limit, len(want))], r.decode(out)); d != "" {
				t.Errorf("limit=%d par=%d: %s", limit, par, d)
			}
		}
	}
}

// TestJoinLimitBoundsTailScan: `{ A . B } LIMIT k` whose tail pattern fans
// out by thousands per head row visits O(k) index entries, not the fan-out:
// the limit rides into the probes of the run's last pattern. The first 60
// head rows have no tail match, so the pages grow past parallelThreshold and
// the limited probe also runs through the pool (there every chunk may probe
// up to k rows before the merger has seen enough).
func TestJoinLimitBoundsTailScan(t *testing.T) {
	const heads, barren, fanout, k = 200, 60, 2000, 5
	var triples []rdf.Triple
	for h := 0; h < heads; h++ {
		head := rdf.IRI(fmt.Sprintf("http://f/h%03d", h))
		triples = append(triples, rdf.Triple{S: head, P: "http://f/a", O: rdf.NewLiteral("x")})
		for j := 0; h >= barren && j < fanout; j++ {
			triples = append(triples, rdf.Triple{S: head, P: "http://f/b", O: rdf.NewInteger(int64(j))})
		}
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	q := fmt.Sprintf(`SELECT ?h ?v WHERE { ?h <http://f/a> "x" . ?h <http://f/b> ?v } LIMIT %d`, k)
	want := oracleExec(t, st, q)
	for _, par := range []int{1, 4} {
		met := NewMetrics(obs.NewRegistry())
		got := execOpts(t, st, q, Options{Parallelism: par, Metrics: met})
		if d := firstDiff(want.Rows, got.Rows); d != "" {
			t.Fatalf("par=%d: %s", par, d)
		}
		// Head rows paged (4+8+16+32+64) plus at most k per probe chunk.
		if scanned := met.MatchesScanned.Value(); scanned > 124+4*chunksPerWorker*k {
			t.Errorf("par=%d: scanned %d index entries for LIMIT %d, want O(k), not the tail's fan-out of %d", par, scanned, k, fanout)
		}
	}
}

// TestStreamSelectStarVars: SELECT * on the streaming path resolves the
// header statically (every bindable pattern variable, sorted); rows match
// the materializing path.
func TestStreamSelectStarVars(t *testing.T) {
	st := testStore(t)
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT * WHERE { ?p foaf:knows ?q } LIMIT 2`
	got := execOpts(t, st, q, Options{Parallelism: 1})
	ref := oracleExec(t, st, q)
	if !reflect.DeepEqual(got.Vars, []string{"p", "q"}) {
		t.Fatalf("vars = %v, want [p q]", got.Vars)
	}
	if !reflect.DeepEqual(got.Rows, ref.Rows) {
		t.Errorf("rows differ: %v vs %v", got.Rows, ref.Rows)
	}
}
