package sparql

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// idJoinTriples is a dataset shaped to exercise every executor strategy:
// categorical triples (bound-object merge joins), a link chain (equal-prefix
// subject merges), numeric literals, a hub every entity points at (duplicate
// merge keys) and a few self-loops (repeated variables).
func idJoinTriples() []rdf.Triple {
	const n = 300
	var triples []rdf.Triple
	for i := 0; i < n; i++ {
		triples = append(triples,
			rdf.Triple{S: idJoinEnt(i), P: "http://x/cat", O: rdf.NewLiteral(fmt.Sprintf("c%d", i%3))},
			rdf.Triple{S: idJoinEnt(i), P: "http://x/num", O: rdf.NewInteger(int64(i % 50))},
			rdf.Triple{S: idJoinEnt(i), P: "http://x/link", O: idJoinEnt((i + 7) % n)},
			rdf.Triple{S: idJoinEnt(i), P: "http://x/rel", O: idJoinEnt(0)}, // shared hub
		)
		if i%37 == 0 {
			triples = append(triples, rdf.Triple{S: idJoinEnt(i), P: "http://x/link", O: idJoinEnt(i)})
		}
	}
	return triples
}

func idJoinEnt(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://x/e%d", i)) }

// idJoinStore is idJoinTriples compacted, plus uncompacted delta triples and
// a tombstone so ScanIDs runs carry a tail.
func idJoinStore(t testing.TB) *store.Store {
	t.Helper()
	const n = 300
	ent := idJoinEnt
	st, err := store.Load(idJoinTriples())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := st.Add(rdf.Triple{S: ent(n + i), P: "http://x/cat", O: rdf.NewLiteral("c1")}); err != nil {
			t.Fatal(err)
		}
		if err := st.Add(rdf.Triple{S: ent(n + i), P: "http://x/num", O: rdf.NewInteger(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Delete(rdf.Triple{S: ent(1), P: "http://x/num", O: rdf.NewInteger(1)}) {
		t.Fatal("tombstone delete failed")
	}
	return st
}

// idJoinQueries is the differential grid: shapes chosen to hit each strategy
// (merge join, scan-cross, per-row probe) and each exclusion (mixed slots,
// repeated variables, predicate-variable lead, absent constants).
var idJoinQueries = []struct {
	name, q string
}{
	{"bound-object merge", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v }`},
	{"three-pattern chain", `SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . ?e <http://x/link> ?o . ?o <http://x/num> ?v }`},
	{"scan-cross then merge", `SELECT ?e ?c ?v WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v }`},
	{"duplicate merge keys", `SELECT ?e ?v WHERE { ?e <http://x/rel> ?h . ?h <http://x/num> ?v }`},
	{"cycle join", `SELECT ?a ?b WHERE { ?a <http://x/link> ?b . ?b <http://x/link> ?a }`},
	{"repeated variable", `SELECT ?a WHERE { ?a <http://x/link> ?a }`},
	{"predicate variable lead", `SELECT ?p ?x ?y WHERE { <http://x/e0> ?p ?o . ?x ?p ?y } LIMIT 400`},
	{"empty run", `SELECT ?e ?v WHERE { ?e <http://x/cat> "missing" . ?e <http://x/num> ?v }`},
	{"absent constant", `SELECT ?v WHERE { ?e <http://nowhere/p> ?v }`},
	{"optional", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . OPTIONAL { ?e <http://x/num> ?v } }`},
	{"union", `SELECT ?e WHERE { { ?e <http://x/cat> "c0" } UNION { ?e <http://x/cat> "c1" } }`},
	{"values with foreign term", `SELECT ?e ?v WHERE { VALUES ?e { <http://x/e1> <http://nowhere/x> } ?e <http://x/num> ?v }`},
	{"filter", `SELECT ?e ?v WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v FILTER(?v > 40) }`},
	{"order by limit", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v } ORDER BY ?v ?e LIMIT 25`},
}

// TestIDJoinDifferential is the executor's contract: for every query shape,
// every store state, both parallelism settings and both entry points
// (EvalCtx and Stream.Run), the rows — values and order — are the term-space
// oracle's.
func TestIDJoinDifferential(t *testing.T) {
	states := append(storeStates(t, idJoinTriples()), storeState{"delta+tombstone", idJoinStore(t)})
	for _, state := range states {
		for _, tc := range idJoinQueries {
			t.Run(state.name+"/"+tc.name, func(t *testing.T) {
				checkAgainstOracle(t, state.st, tc.q)
			})
		}
	}
}

// TestIDJoinUnderConcurrentWrites runs the differential grid's join queries
// while writers add and delete triples that never match the queried
// predicates but continually bump the store's layout epoch (delta growth,
// compaction). Every result must still equal the quiescent answer — this
// drives ScanIDs runs taken across merges from the executor's side.
func TestIDJoinUnderConcurrentWrites(t *testing.T) {
	st := idJoinStore(t)
	queries := []string{
		`SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v }`,
		`SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . ?e <http://x/link> ?o . ?o <http://x/num> ?v }`,
	}
	want := make([][]Binding, len(queries))
	for i, q := range queries {
		want[i] = execOpts(t, st, q, Options{Parallelism: 1}).Rows
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				noise := rdf.Triple{
					S: rdf.IRI(fmt.Sprintf("http://noise/%d-%d", w, i)),
					P: "http://noise/p",
					O: rdf.NewInteger(int64(i)),
				}
				st.Add(noise)
				if i%5 == 0 {
					st.Delete(noise)
				}
				if i%50 == 0 {
					st.Compact()
				}
			}
		}(w)
	}
	for round := 0; round < 30; round++ {
		for i, q := range queries {
			res, err := ExecCtx(context.Background(), st, q, Options{Parallelism: 4})
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			if d := firstDiff(want[i], res.Rows); d != "" {
				t.Fatalf("round %d query %d diverged under writes: %s", round, i, d)
			}
		}
	}
	close(stop)
	writers.Wait()
}

// TestIDJoinMergeEdgeCases drives evalPatternRun directly at the strategy
// seams: a merge whose scan run is empty, input rows all sharing one key,
// and keys with no span in the sorted run but matches in the delta tail.
func TestIDJoinMergeEdgeCases(t *testing.T) {
	st := idJoinStore(t)
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	v := func(s string) Node { return Node{Var: s} }
	c := func(t rdf.Term) Node { return Node{Term: t} }

	ent := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://x/e%d", i)) }
	seed := []Binding{
		{"e": ent(1)},                      // its num triple is tombstoned
		{"e": ent(2)},                      // sorted-run match
		{"e": ent(2)},                      // duplicate key
		{"e": ent(305)},                    // match only in the uncompacted delta tail
		{"e": rdf.IRI("http://nowhere/e")}, // not in the dictionary
	}
	run := []TriplePattern{{S: v("e"), P: c(rdf.IRI("http://x/num")), O: v("n")}}

	got, err := e.evalPatternRun(run, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := termSpaceRun(st)(run, seed)
	if err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(want, got); d != "" {
		t.Fatalf("merge edges diverged: %s", d)
	}
	if len(got) != 3 {
		t.Fatalf("expected 3 rows (dup key ×2 + delta tail), got %d", len(got))
	}

	// Empty scan run: a constant mask matching nothing returns no rows,
	// without error.
	none := []TriplePattern{{S: v("e"), P: c(rdf.IRI("http://x/cat")), O: c(rdf.NewLiteral("missing"))}}
	got, err = e.evalPatternRun(none, seed)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: got %d rows, err %v", len(got), err)
	}
}
