package keyword

import (
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func ex(s string) rdf.IRI { return rdf.IRI("http://example.org/" + s) }

func sampleStore() *store.Store {
	st := store.New()
	st.AddAll([]rdf.Triple{
		rdf.T(ex("athens"), ex("label"), rdf.NewLiteral("Athens, the capital of Greece")),
		rdf.T(ex("athens"), ex("desc"), rdf.NewLiteral("ancient city")),
		rdf.T(ex("berlin"), ex("label"), rdf.NewLiteral("Berlin, the capital of Germany")),
		rdf.T(ex("sparta"), ex("label"), rdf.NewLiteral("Sparta, an ancient Greek city")),
		rdf.T(ex("GreatWallOfChina"), ex("type"), ex("Monument")),
	})
	return st
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("Hello, World! foo_bar 42")
	want := []string{"hello", "world", "foo", "bar", "42"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
	if len(Tokenize("")) != 0 {
		t.Error("empty text should have no tokens")
	}
}

func TestSearchRanksBySpecificity(t *testing.T) {
	idx := BuildIndex(sampleStore())
	hits := idx.Search("ancient city", 10)
	if len(hits) < 2 {
		t.Fatalf("hits = %v", hits)
	}
	// Athens ("ancient city" verbatim, twice 'ancient'... actually once) and
	// Sparta both match; Berlin must not outrank them.
	top2 := map[rdf.Term]bool{hits[0].Entity: true, hits[1].Entity: true}
	if !top2[ex("athens")] || !top2[ex("sparta")] {
		t.Errorf("top hits = %v", hits)
	}
}

func TestSearchCommonWordRanksLower(t *testing.T) {
	idx := BuildIndex(sampleStore())
	hits := idx.Search("capital Greece", 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if hits[0].Entity != ex("athens") {
		t.Errorf("top hit = %v, want athens (has the rarer token)", hits[0].Entity)
	}
}

func TestSearchLocalNameHumanized(t *testing.T) {
	idx := BuildIndex(sampleStore())
	hits := idx.Search("great wall", 10)
	if len(hits) != 1 || hits[0].Entity != ex("GreatWallOfChina") {
		t.Errorf("camel-case local name not searchable: %v", hits)
	}
}

func TestSearchNoResults(t *testing.T) {
	idx := BuildIndex(sampleStore())
	if hits := idx.Search("zanzibar", 10); len(hits) != 0 {
		t.Errorf("hits = %v", hits)
	}
	if hits := idx.Search("", 10); len(hits) != 0 {
		t.Errorf("empty query hits = %v", hits)
	}
}

func TestSearchLimit(t *testing.T) {
	idx := BuildIndex(sampleStore())
	hits := idx.Search("city capital ancient", 1)
	if len(hits) != 1 {
		t.Errorf("limit ignored: %d hits", len(hits))
	}
	// Default limit when <= 0.
	hits = idx.Search("city", 0)
	if len(hits) == 0 || len(hits) > 10 {
		t.Errorf("default limit hits = %d", len(hits))
	}
}

func TestComplete(t *testing.T) {
	idx := BuildIndex(sampleStore())
	comps := idx.Complete("an", 10)
	found := false
	for _, c := range comps {
		if c == "ancient" {
			found = true
		}
	}
	if !found {
		t.Errorf("Complete(an) = %v, missing 'ancient'", comps)
	}
	if len(idx.Complete("zzz", 5)) != 0 {
		t.Error("bogus prefix completed")
	}
	if comps := idx.Complete("", 3); len(comps) != 3 {
		t.Errorf("empty prefix should cap at limit: %d", len(comps))
	}
}

func TestDocumentTextOrder(t *testing.T) {
	// Local name first, then literals by (predicate, object) dictionary ID
	// — here the order of first mention — however the statements arrived.
	st := store.New()
	st.AddAll([]rdf.Triple{
		rdf.T(ex("x"), ex("p"), rdf.NewLiteral("first")),
		rdf.T(ex("x"), ex("q"), rdf.NewLiteral("second")),
	})
	st.Add(rdf.T(ex("x"), ex("p"), rdf.NewLiteral("third")))
	idx := BuildIndex(st)
	if idx.Len() != 1 {
		t.Errorf("Len = %d, want 1", idx.Len())
	}
	hits := idx.Search("second", 5)
	if len(hits) != 1 || hits[0].Snippet != "x first third second" {
		t.Errorf("hits = %+v", hits)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	st := store.New()
	st.AddAll([]rdf.Triple{
		rdf.T(ex("b"), ex("label"), rdf.NewLiteral("same text")),
		rdf.T(ex("a"), ex("label"), rdf.NewLiteral("same text")),
	})
	hits := BuildIndex(st).Search("same", 5)
	if len(hits) != 2 || hits[0].Entity != ex("a") {
		t.Errorf("tie-break not deterministic: %v", hits)
	}
}

func TestReindexDocumentWithRepeatedUniqueToken(t *testing.T) {
	// "zeta" is in one document, twice: removing the document drops the
	// token at its first occurrence, and the second must find it gone.
	st := store.New()
	st.Add(rdf.T(ex("x"), ex("label"), rdf.NewLiteral("zeta zeta")))
	idx := BuildIndex(st)
	x, _ := st.LookupTermID(ex("x"))
	st.Add(rdf.T(ex("x"), ex("desc"), rdf.NewLiteral("eta")))
	idx.reindex(st, []store.ID{x})
	if hits := idx.Search("zeta eta", 5); len(hits) != 1 || hits[0].Snippet != "x zeta zeta eta" {
		t.Errorf("hits = %+v", hits)
	}
}
