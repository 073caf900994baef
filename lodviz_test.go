package lodviz

import (
	"context"
	"strings"
	"testing"
)

func TestLoadTurtleAndQuery(t *testing.T) {
	ds, err := LoadTurtle(`
@prefix ex: <http://example.org/> .
ex:a ex:p ex:b .
ex:b ex:p ex:c .
`)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d", ds.Len())
	}
	res, err := ds.QueryCtx(context.Background(), `SELECT ?x WHERE { ?x <http://example.org/p> ?y }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestLoadTurtleError(t *testing.T) {
	if _, err := LoadTurtle("not turtle at all <"); err == nil {
		t.Error("bad turtle accepted")
	}
}

func TestLoadNTriples(t *testing.T) {
	ds, err := LoadNTriples(strings.NewReader(
		"<http://e/s> <http://e/p> \"v\" .\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 1 {
		t.Errorf("Len = %d", ds.Len())
	}
}

func TestMiniLODExploration(t *testing.T) {
	ds := MiniLOD()
	if st := ds.Stats(); st.Triples != ds.Len() {
		t.Errorf("stats triples = %d, want %d", st.Triples, ds.Len())
	}
	hits := ds.Search("Bordeaux", 3)
	if len(hits) == 0 {
		t.Error("search found nothing")
	}
}

func TestDynamicAdd(t *testing.T) {
	ds := MiniLOD()
	before := ds.Len()
	err := ds.Add(Triple{
		S: IRI("http://lodviz.example.org/mini/sparti"),
		P: IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
		O: IRI("http://lodviz.example.org/mini/City"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != before+1 {
		t.Error("dynamic add failed")
	}
	res, _ := ds.QueryCtx(context.Background(), `
PREFIX ex: <http://lodviz.example.org/mini/>
SELECT ?c WHERE { ?c a ex:City }`, QueryOptions{})
	if len(res.Rows) != 6 {
		t.Errorf("cities after add = %d", len(res.Rows))
	}
}

func TestQueryOptsParallelismEquivalent(t *testing.T) {
	ds, err := GenerateEntities(EntityOptions{Entities: 2000, CategoryProps: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT ?e ?c WHERE { ?e a ?c . ?e <http://lodviz.example.org/prop/cat0> ?v . }`
	seq, err := ds.QueryCtx(context.Background(), q, QueryOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ds.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := ds.QueryCtx(context.Background(), q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i, other := range []*Results{par, def} {
		if len(other.Rows) != len(seq.Rows) {
			t.Fatalf("variant %d: %d rows, want %d", i, len(other.Rows), len(seq.Rows))
		}
		for j := range seq.Rows {
			for _, v := range seq.Vars {
				if seq.Rows[j][v] != other.Rows[j][v] {
					t.Fatalf("variant %d: row %d differs", i, j)
				}
			}
		}
	}
}
