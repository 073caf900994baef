package sparql

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func reorderStore(t *testing.T) *store.Store {
	t.Helper()
	ns := rdf.IRI("http://r/")
	var triples []rdf.Triple
	for i := 0; i < 1000; i++ {
		s := rdf.IRI(fmt.Sprintf("http://r/ent/%d", i))
		triples = append(triples, rdf.T(s, rdf.RDFType, ns+"Item"))
	}
	// Exactly one entity carries the selective property.
	triples = append(triples, rdf.T(rdf.IRI("http://r/ent/42"), ns+"special", rdf.NewLiteral("yes")))
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func tpVar(s string) Node       { return Node{Var: s} }
func tpTerm(term rdf.Term) Node { return Node{Term: term} }
func tpIRI(s string) Node       { return Node{Term: rdf.IRI(s)} }
func patterns(elems []GroupElem) []TriplePattern {
	var out []TriplePattern
	for _, el := range elems {
		if tp, ok := el.(TriplePattern); ok {
			out = append(out, tp)
		}
	}
	return out
}

// The estimator must run the 1-triple `?s :special "yes"` pattern before the
// 1000-triple `?s rdf:type :Item` pattern, whatever order the author wrote.
func TestReorderSelectiveBeforeBroad(t *testing.T) {
	e := newEngine(context.Background(), reorderStore(t), Options{Parallelism: 1})
	broad := TriplePattern{S: tpVar("s"), P: tpTerm(rdf.RDFType), O: tpIRI("http://r/Item")}
	selective := TriplePattern{S: tpVar("s"), P: tpIRI("http://r/special"), O: tpTerm(rdf.NewLiteral("yes"))}
	for _, order := range [][]GroupElem{
		{broad, selective},
		{selective, broad},
	} {
		got := patterns(e.reorderTriplePatterns(order))
		if len(got) != 2 || got[0] != selective {
			t.Errorf("order %v: selective pattern not first: %v", order, got)
		}
	}
}

// A pattern with no bound position sorts after one constrained by a constant
// or an already-bound join variable.
func TestReorderUnboundLast(t *testing.T) {
	e := newEngine(context.Background(), reorderStore(t), Options{Parallelism: 1})
	unbound := TriplePattern{S: tpVar("a"), P: tpVar("b"), O: tpVar("c")}
	typed := TriplePattern{S: tpVar("s"), P: tpTerm(rdf.RDFType), O: tpIRI("http://r/Item")}
	got := patterns(e.reorderTriplePatterns([]GroupElem{unbound, typed}))
	if len(got) != 2 || got[0] != typed {
		t.Errorf("unbound pattern should run last, got %v", got)
	}
}

// A pattern whose subject joins an already-bound variable must beat an
// unrelated scan of the same predicate size: the join divides the fan-out by
// the predicate's distinct-subject count.
func TestReorderPrefersJoinBoundPattern(t *testing.T) {
	ns := "http://r/"
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		s := rdf.IRI(fmt.Sprintf("%sent/%d", ns, i))
		triples = append(triples, rdf.T(s, rdf.IRI(ns+"name"), rdf.NewLiteral(fmt.Sprintf("n%d", i))))
		triples = append(triples, rdf.T(s, rdf.IRI(ns+"age"), rdf.NewInteger(int64(i))))
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	seed := TriplePattern{S: tpVar("s"), P: tpIRI(ns + "name"), O: tpTerm(rdf.NewLiteral("n7"))}
	joined := TriplePattern{S: tpVar("s"), P: tpIRI(ns + "age"), O: tpVar("v")}
	other := TriplePattern{S: tpVar("x"), P: tpIRI(ns + "name"), O: tpVar("y")}
	got := patterns(e.reorderTriplePatterns([]GroupElem{other, joined, seed}))
	want := []TriplePattern{seed, joined, other}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("greedy order = %v, want %v", got, want)
		}
	}
}

// Non-pattern elements (FILTER-bearing subgroups, BIND, VALUES) must keep
// their positions; only contiguous pattern runs are permuted.
func TestReorderKeepsNonPatternPositions(t *testing.T) {
	e := newEngine(context.Background(), reorderStore(t), Options{Parallelism: 1})
	broad := TriplePattern{S: tpVar("s"), P: tpTerm(rdf.RDFType), O: tpIRI("http://r/Item")}
	selective := TriplePattern{S: tpVar("s"), P: tpIRI("http://r/special"), O: tpTerm(rdf.NewLiteral("yes"))}
	bind := Bind{Var: "b", Expr: ExTerm{Term: rdf.NewInteger(1)}}
	got := e.reorderTriplePatterns([]GroupElem{broad, bind, selective})
	if _, ok := got[1].(Bind); !ok {
		t.Fatalf("BIND moved: %v", got)
	}
	// The runs on either side are singletons, so order is unchanged.
	if got[0] != GroupElem(broad) || got[2] != GroupElem(selective) {
		t.Errorf("singleton runs permuted across BIND: %v", got)
	}
}

// solutionKeys renders each row as a canonical string so multisets compare
// order-independently.
func solutionKeys(res *Results) []string {
	keys := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var parts []string
		for _, v := range res.Vars {
			if t, ok := row[v]; ok {
				parts = append(parts, v+"="+t.String())
			} else {
				parts = append(parts, v+"=")
			}
		}
		keys = append(keys, strings.Join(parts, "|"))
	}
	sort.Strings(keys)
	return keys
}

// Reordered evaluation must produce exactly the solutions of the naive
// textual order, on a dataset large enough that the orders actually differ.
func TestReorderEquivalentToNaiveOrder(t *testing.T) {
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 1500, NumericProps: 1, CategoryProps: 1, LinkProps: 1, Seed: 99,
	}))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		// Written worst-first: the unconstrained link scan leads.
		fmt.Sprintf(`SELECT ?e ?o ?v WHERE { ?e <%s> ?o . ?o <%s> ?v . ?e <%s> "category-3" . }`,
			string(gen.Prop("rel0")), string(gen.Prop("num0")), string(gen.Prop("cat0"))),
		fmt.Sprintf(`SELECT ?e ?c WHERE { ?e <%s> ?c . ?e <%s> "category-1" . }`,
			string(rdf.RDFType), string(gen.Prop("cat0"))),
	}
	for _, q := range queries {
		parsed, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		planned, err := EvalCtx(context.Background(), st, parsed, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(planned.Rows) == 0 {
			t.Fatalf("query %q returned no rows; test data broken", q)
		}
		naive := evalNoReorder(t, st, parsed)
		got, want := solutionKeys(planned), solutionKeys(naive)
		if len(got) != len(want) {
			t.Fatalf("query %q: planned %d rows, naive %d rows", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %q: solution multisets differ at %d: %q vs %q", q, i, got[i], want[i])
			}
		}
	}
}

// evalNoReorder runs the full pipeline with the planner disabled.
func evalNoReorder(t *testing.T, st *store.Store, q *Query) *Results {
	t.Helper()
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	e.noReorder = true
	res, err := evalWithEngine(e, q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fanoutWithBase sanity: a dead pattern (constant absent from the store)
// estimates zero and therefore runs first, short-circuiting the group.
func TestEstimateFanoutDeadPatternFirst(t *testing.T) {
	e := newEngine(context.Background(), reorderStore(t), Options{Parallelism: 1})
	dead := TriplePattern{S: tpVar("s"), P: tpIRI("http://r/nosuch"), O: tpVar("o")}
	if est := e.fanoutWithBase(dead, float64(e.estimate(dead)), map[string]bool{}); est != 0 {
		t.Fatalf("fanoutWithBase(dead) = %v, want 0", est)
	}
	broad := TriplePattern{S: tpVar("s"), P: tpTerm(rdf.RDFType), O: tpIRI("http://r/Item")}
	got := patterns(e.reorderTriplePatterns([]GroupElem{broad, dead}))
	if got[0] != dead {
		t.Errorf("dead pattern should be scheduled first: %v", got)
	}
}
