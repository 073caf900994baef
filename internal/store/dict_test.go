package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/snapshot"
)

// modelTerms returns 7·n distinct terms in groups that differ as little as
// terms can: an IRI and a blank node with the same string, and literals with
// one lexical form that differ only in datatype or only in language.
func modelTerms(n int) []rdf.Term {
	out := make([]rdf.Term, 0, 7*n)
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("http://e/%d", i)
		lex := fmt.Sprint(i)
		out = append(out,
			rdf.IRI(s),
			rdf.BlankNode(s),
			rdf.NewLiteral(lex),
			rdf.NewTypedLiteral(lex, rdf.XSDInteger),
			rdf.NewTypedLiteral(lex, rdf.IRI(s)),
			rdf.NewLangLiteral(lex, "en"),
			rdf.NewLangLiteral(lex, "en-gb"),
		)
	}
	return out
}

// TestTermTableAgainstModel interns 210 000 terms in a random order — the
// table grows from 8 slots to 2^19, and at this size several pairs of terms
// share a 32-bit tag — and holds every answer to a map[rdf.Term]ID.
func TestTermTableAgainstModel(t *testing.T) {
	const groups = 30_000
	terms := modelTerms(groups)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })

	st := New()
	st.mu.Lock()
	defer st.mu.Unlock()
	model := make(map[rdf.Term]ID, len(terms))
	for _, tm := range terms {
		id := st.intern(tm)
		if want, ok := model[tm]; ok {
			if id != want {
				t.Fatalf("re-interning %v: ID %d, first %d", tm, id, want)
			}
			continue
		}
		// A new term takes the next dense ID, so no two terms share one.
		if int(id) != len(model)+1 {
			t.Fatalf("intern(%v) = %d, want the new ID %d", tm, id, len(model)+1)
		}
		model[tm] = id
	}
	if len(model) != 7*groups || len(st.terms) != len(model)+1 {
		t.Fatalf("%d distinct terms, %d IDs; want %d", len(model), len(st.terms)-1, 7*groups)
	}
	words := 0
	for _, w := range st.dict.slots {
		if w != 0 {
			words++
		}
	}
	if words != len(model) || 2*words > len(st.dict.slots) {
		t.Fatalf("%d words in %d slots for %d terms", words, len(st.dict.slots), len(model))
	}

	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	for _, tm := range terms {
		if id := st.intern(tm); id != model[tm] {
			t.Fatalf("re-interning %v: ID %d, want %d", tm, id, model[tm])
		}
		if id, ok := st.lookup(tm); !ok || id != model[tm] || st.terms[id] != tm {
			t.Fatalf("lookup(%v) = %d,%v; want %d", tm, id, ok, model[tm])
		}
	}
	if len(st.terms) != len(model)+1 {
		t.Fatalf("re-interning added terms: %d IDs", len(st.terms)-1)
	}
	for _, tm := range append(modelTerms(groups + 100)[7*groups:], nil) {
		if id, ok := st.lookup(tm); ok {
			t.Fatalf("lookup of absent %v = %d", tm, id)
		}
	}

	tags := make(map[uint32]int, len(model))
	shared := 0
	for tm := range model {
		if tags[st.dict.tag(tm)]++; tags[st.dict.tag(tm)] == 2 {
			shared++
		}
	}
	t.Logf("%d terms, %d slots, %d tags held by more than one term", len(model), len(st.dict.slots), shared)
}

// TestTermTableSharedTag takes two terms whose tags are equal under the
// store's seed, found by a birthday search: with one of them interned, the
// other is absent, and once interned it has an ID of its own.
func TestTermTableSharedTag(t *testing.T) {
	st := New()
	byTag := map[uint32]rdf.Term{}
	var a, b rdf.Term
	for i := 0; a == nil; i++ {
		tm := rdf.Term(rdf.IRI(fmt.Sprintf("http://e/%d", i)))
		if i%2 == 1 {
			tm = rdf.NewLiteral(fmt.Sprint(i))
		}
		tag := st.dict.tag(tm)
		if prev, ok := byTag[tag]; ok {
			a, b = prev, tm
		}
		byTag[tag] = tm
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ida := st.intern(a)
	if id, ok := st.lookup(b); ok {
		t.Fatalf("lookup of absent %v, sharing %v's tag, = %d", b, a, id)
	}
	idb := st.intern(b)
	if ida == idb || st.intern(a) != ida || st.intern(b) != idb {
		t.Fatalf("terms %v and %v sharing a tag interned as %d, %d", a, b, ida, idb)
	}
}

// TestSnapshotRejectsDuplicateTerm: a snapshot whose dictionary names one
// term twice is corrupt, even under a valid checksum.
func TestSnapshotRejectsDuplicateTerm(t *testing.T) {
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []rdf.Term{iri("s"), iri("p"), iri("s")} {
		if err := sw.Term(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Triple(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(&buf); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("ReadSnapshot = %v; want ErrCorrupt", err)
	}
}
