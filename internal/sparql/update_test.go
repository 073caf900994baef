package sparql

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func updStore(t *testing.T, triples ...rdf.Triple) *store.Store {
	t.Helper()
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestInsertData(t *testing.T) {
	st := updStore(t)
	res, err := ExecUpdateCtx(context.Background(), st, `
		PREFIX ex: <http://ex/>
		INSERT DATA {
			ex:a ex:p ex:b ;
			     ex:q "v"@en , 42 .
			_:b1 a ex:Thing .
		}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 4 || res.Deleted != 0 || res.Ops != 1 {
		t.Fatalf("result = %+v, want 4 inserted, 1 op", res)
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d triples, want 4", st.Len())
	}
	for _, want := range []rdf.Triple{
		{S: rdf.IRI("http://ex/a"), P: "http://ex/p", O: rdf.IRI("http://ex/b")},
		{S: rdf.IRI("http://ex/a"), P: "http://ex/q", O: rdf.NewLangLiteral("v", "en")},
		{S: rdf.IRI("http://ex/a"), P: "http://ex/q", O: rdf.NewTypedLiteral("42", rdf.XSDInteger)},
		{S: rdf.BlankNode("b1"), P: rdf.RDFType, O: rdf.IRI("http://ex/Thing")},
	} {
		if !st.Contains(want) {
			t.Errorf("store missing %v", want)
		}
	}

	// Idempotent: re-inserting the same data changes nothing, and the
	// generation stays put so caches survive.
	gen := st.Generation()
	res, err = ExecUpdateCtx(context.Background(), st, `PREFIX ex: <http://ex/>
		INSERT DATA { ex:a ex:p ex:b }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 {
		t.Errorf("duplicate insert counted %d", res.Inserted)
	}
	if st.Generation() != gen {
		t.Error("no-op insert advanced the generation")
	}
}

func TestDeleteData(t *testing.T) {
	a := rdf.Triple{S: rdf.IRI("http://ex/a"), P: "http://ex/p", O: rdf.IRI("http://ex/b")}
	b := rdf.Triple{S: rdf.IRI("http://ex/c"), P: "http://ex/p", O: rdf.NewInteger(7)}
	st := updStore(t, a, b)
	res, err := ExecUpdateCtx(context.Background(), st, `PREFIX ex: <http://ex/>
		DELETE DATA { ex:a ex:p ex:b . ex:missing ex:p ex:b }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted %d, want 1 (the absent triple counts zero)", res.Deleted)
	}
	if st.Contains(a) || !st.Contains(b) {
		t.Fatal("wrong triple deleted")
	}
}

func TestDeleteWhere(t *testing.T) {
	ent := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://ex/e%d", i)) }
	var triples []rdf.Triple
	for i := 0; i < 10; i++ {
		triples = append(triples,
			rdf.Triple{S: ent(i), P: "http://ex/cat", O: rdf.NewLiteral(fmt.Sprintf("c%d", i%2))},
			rdf.Triple{S: ent(i), P: "http://ex/num", O: rdf.NewInteger(int64(i))},
		)
	}
	st := updStore(t, triples...)

	// Joined pattern: both patterns of every matching solution are deleted.
	res, err := ExecUpdateCtx(context.Background(), st, `PREFIX ex: <http://ex/>
		DELETE WHERE { ?e ex:cat "c1" . ?e ex:num ?v }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 10 {
		t.Fatalf("deleted %d, want 10 (5 entities × 2 triples)", res.Deleted)
	}
	if st.Len() != 10 {
		t.Fatalf("store holds %d, want 10", st.Len())
	}
	// No c1 entity survives, every c0 entity is intact.
	for i := 0; i < 10; i++ {
		want := i%2 == 0
		if got := st.Contains(rdf.Triple{S: ent(i), P: "http://ex/num", O: rdf.NewInteger(int64(i))}); got != want {
			t.Errorf("entity %d num triple present=%v, want %v", i, got, want)
		}
	}

	// Non-matching pattern deletes nothing and is not an error.
	res, err = ExecUpdateCtx(context.Background(), st, `DELETE WHERE { ?s <http://nowhere/p> ?o }`, Options{})
	if err != nil || res.Deleted != 0 {
		t.Fatalf("empty DELETE WHERE: %+v, %v", res, err)
	}
}

func TestMultiOpUpdate(t *testing.T) {
	st := updStore(t)
	res, err := ExecUpdateCtx(context.Background(), st, `PREFIX ex: <http://ex/>
		INSERT DATA { ex:a ex:p ex:b . ex:a ex:p ex:c } ;
		DELETE DATA { ex:a ex:p ex:b } ;
		INSERT DATA { ex:a ex:p ex:d } ;`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 3 || res.Inserted != 3 || res.Deleted != 1 {
		t.Fatalf("result = %+v, want 3 ops, 3 inserted, 1 deleted", res)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d, want 2", st.Len())
	}
}

func TestUpdateParseErrors(t *testing.T) {
	for name, src := range map[string]string{
		"query not update":        `SELECT ?s WHERE { ?s ?p ?o }`,
		"variable in insert data": `INSERT DATA { ?s <http://ex/p> <http://ex/o> }`,
		"anon in insert data":     `INSERT DATA { [] <http://ex/p> <http://ex/o> }`,
		"blank in delete data":    `DELETE DATA { _:b <http://ex/p> <http://ex/o> }`,
		"blank obj delete data":   `DELETE DATA { <http://ex/s> <http://ex/p> _:b }`,
		"filter in delete where":  `DELETE WHERE { ?s ?p ?o FILTER(?o > 3) }`,
		"optional in delete":      `DELETE WHERE { ?s ?p ?o OPTIONAL { ?s ?p ?q } }`,
		"bare delete":             `DELETE { <http://ex/s> <http://ex/p> ?o }`,
		"empty":                   ``,
		"trailing garbage":        `INSERT DATA { <http://ex/s> <http://ex/p> 1 } nonsense`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseUpdate(src); err == nil {
				t.Fatalf("ParseUpdate(%q) succeeded", src)
			} else if !errors.Is(err, ErrParse) {
				t.Fatalf("error %v is not ErrParse", err)
			}
		})
	}
}

func TestUpdateGenerationInvalidation(t *testing.T) {
	st := updStore(t, rdf.Triple{S: rdf.IRI("http://ex/a"), P: "http://ex/p", O: rdf.IRI("http://ex/b")})
	gen := st.Generation()
	if _, err := ExecUpdateCtx(context.Background(), st, `INSERT DATA { <http://ex/x> <http://ex/p> 1 }`, Options{}); err != nil {
		t.Fatal(err)
	}
	if st.Generation() == gen {
		t.Fatal("effective insert did not advance the generation")
	}
	gen = st.Generation()
	if _, err := ExecUpdateCtx(context.Background(), st, `DELETE WHERE { <http://ex/x> <http://ex/p> ?v }`, Options{}); err != nil {
		t.Fatal(err)
	}
	if st.Generation() == gen {
		t.Fatal("effective delete did not advance the generation")
	}
}
