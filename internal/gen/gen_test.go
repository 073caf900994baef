package gen

import (
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func TestEntityDataset(t *testing.T) {
	opts := EntityOptions{
		Entities: 200, Classes: 4,
		NumericProps: 2, TemporalProps: 1, CategoryProps: 1,
		Categories: 5, LinkProps: 1, Seed: 3,
	}
	st, err := store.Load(EntityDataset(opts))
	if err != nil {
		t.Fatal(err)
	}
	stats := st.ComputeStats()
	if stats.Triples == 0 {
		t.Fatal("no triples")
	}
	// Every entity has a type and a label.
	if n := st.Count(store.Pattern{P: rdf.RDFType}); n != 200 {
		t.Errorf("typed entities = %d", n)
	}
	if n := st.Count(store.Pattern{P: rdf.RDFSLabel}); n != 200 {
		t.Errorf("labels = %d", n)
	}
	n := 0
	st.ForEach(store.Pattern{P: Prop("num0")}, func(tr rdf.Triple) bool {
		n++
		if v, ok := tr.O.(rdf.Literal).Float(); !ok || v < 0 {
			t.Errorf("num0 value %v is not a non-negative number", tr.O)
		}
		return true
	})
	if n != 200 {
		t.Errorf("num0 values = %d", n)
	}
}

func TestMiniLODStore(t *testing.T) {
	st := MiniLODStore()
	if st.Len() < 50 {
		t.Errorf("MiniLOD triples = %d, seems truncated", st.Len())
	}
	// Athens is in Greece.
	athens := rdf.IRI(MiniNS + "athens")
	greece := rdf.IRI(MiniNS + "greece")
	if !st.Contains(rdf.Triple{S: athens, P: rdf.IRI(MiniNS + "country"), O: greece}) {
		t.Error("athens-country-greece missing")
	}
	// The ontology is extractable.
	if n := st.Count(store.Pattern{P: rdf.RDFSSubClassOf}); n != 3 {
		t.Errorf("subclass axioms = %d, want 3", n)
	}
}

func TestPropAndRes(t *testing.T) {
	if Prop("x") != rdf.IRI(NS+"prop/x") {
		t.Error("Prop wrong")
	}
	if Res("node", 3) != rdf.IRI(NS+"node/3") {
		t.Error("Res wrong")
	}
}
