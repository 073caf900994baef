package store

import (
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// pageStore builds a store with both a sorted base and a live delta
// overlay, so paging is exercised across the base/delta boundary.
func pageStore(t *testing.T) *Store {
	t.Helper()
	var triples []rdf.Triple
	for i := 0; i < 50; i++ {
		triples = append(triples, rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://p/e%d", i)),
			P: "http://p/v",
			O: rdf.NewInteger(int64(i)),
		})
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	// Post-load writes land in the delta until the next compaction.
	for i := 50; i < 60; i++ {
		if err := st.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://p/e%d", i)),
			P: "http://p/v",
			O: rdf.NewInteger(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// idPage is one ForEachIDPage page decoded through Terms: what ForEachPage
// is sugar for. A constant absent from the dictionary matches nothing.
func idPage(st *Store, pat Pattern, pos, max int) (page []rdf.Triple, next int, done bool) {
	ms, mp, mo, ok := resolvePattern(st, pat)
	if !ok {
		return nil, pos, true
	}
	var ids []ID
	next, done = st.ForEachIDPage(ms, mp, mo, pos, max, func(t IDTriple) bool {
		ids = append(ids, t.S, t.P, t.O)
		return true
	})
	terms := st.Terms(ids)
	for i := 0; i < len(terms); i += 3 {
		page = append(page, rdf.Triple{S: terms[i], P: terms[i+1].(rdf.IRI), O: terms[i+2]})
	}
	return page, next, done
}

// TestForEachPageEquivalence: paging through a pattern at any page size
// yields exactly ForEach's triples in ForEach's order, and every single page
// — for every mask, from every resume position, in every store state — is
// ForEachIDPage's page decoded through Terms, cursor and done flag included.
func TestForEachPageEquivalence(t *testing.T) {
	compacted := pageStore(t)
	compacted.Compact()
	tombstoned := pageStore(t)
	for i := 0; i < 60; i += 4 { // base and delta entries alike
		tombstoned.Delete(rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://p/e%d", i)), P: "http://p/v", O: rdf.NewInteger(int64(i))})
	}
	s, p, o := rdf.IRI("http://p/e55"), rdf.IRI("http://p/v"), rdf.NewInteger(55)
	patterns := []Pattern{
		{}, {S: s}, {P: p}, {O: o}, {S: s, P: p}, {S: s, O: o}, {P: p, O: o}, {S: s, P: p, O: o},
		{S: rdf.IRI("http://p/e7"), P: p}, // in the base, where e55 is in the delta
		{S: rdf.IRI("http://p/nosuch")},
	}
	for name, st := range map[string]*Store{"delta": pageStore(t), "compacted": compacted, "tombstoned": tombstoned} {
		for _, pat := range patterns {
			var want []rdf.Triple
			st.ForEach(pat, func(tr rdf.Triple) bool {
				want = append(want, tr)
				return true
			})
			for _, pageSize := range []int{1, 3, 7, 1000} {
				var got []rdf.Triple
				pos := 0
				for {
					var page []rdf.Triple
					next, done := st.ForEachPage(pat, pos, pageSize, func(tr rdf.Triple) bool {
						page = append(page, tr)
						return true
					})
					idp, idNext, idDone := idPage(st, pat, pos, pageSize)
					if fmt.Sprint(page) != fmt.Sprint(idp) || next != idNext || done != idDone {
						t.Fatalf("%s %+v page %d at %d: ForEachPage = %v, %d, %v; ForEachIDPage+Terms = %v, %d, %v",
							name, pat, pageSize, pos, page, next, done, idp, idNext, idDone)
					}
					got = append(got, page...)
					if !done && next <= pos {
						t.Fatalf("page made no progress: pos %d -> %d", pos, next)
					}
					pos = next
					if done {
						break
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %+v page %d: got %v, want %v", name, pat, pageSize, got, want)
				}
			}
		}
	}
}

// TestForEachPageStop: fn returning false ends the scan (done=true), and a
// resumed cursor skips what was already seen.
func TestForEachPageStop(t *testing.T) {
	st := pageStore(t)
	n := 0
	_, done := st.ForEachPage(Pattern{}, 0, 100, func(rdf.Triple) bool {
		n++
		return n < 5
	})
	if !done || n != 5 {
		t.Fatalf("stop: done=%v after %d triples, want done after 5", done, n)
	}

	// Resume semantics: two half-scans equal one full scan.
	var firstHalf, rest []rdf.Triple
	mid, done := st.ForEachPage(Pattern{}, 0, 30, func(tr rdf.Triple) bool {
		firstHalf = append(firstHalf, tr)
		return true
	})
	if done {
		t.Fatal("60 triples should not be exhausted after 30")
	}
	for pos := mid; ; {
		next, d := st.ForEachPage(Pattern{}, pos, 13, func(tr rdf.Triple) bool {
			rest = append(rest, tr)
			return true
		})
		pos = next
		if d {
			break
		}
	}
	if got := len(firstHalf) + len(rest); got != st.Len() {
		t.Fatalf("split scan saw %d triples, want %d", got, st.Len())
	}
}

// TestLayoutEpoch: delta appends and deletes leave scan positions (and the
// epoch) alone; compaction and bulk rebuilds advance it.
func TestLayoutEpoch(t *testing.T) {
	st := pageStore(t) // sorted base + 10 pending delta entries
	e0 := st.LayoutEpoch()
	if err := st.Add(rdf.Triple{S: rdf.IRI("http://p/extra"), P: "http://p/v", O: rdf.NewInteger(99)}); err != nil {
		t.Fatal(err)
	}
	if st.LayoutEpoch() != e0 {
		t.Fatal("plain delta append must not advance the layout epoch")
	}
	if !st.Delete(rdf.Triple{S: rdf.IRI("http://p/extra"), P: "http://p/v", O: rdf.NewInteger(99)}) {
		t.Fatal("delete failed")
	}
	if st.LayoutEpoch() != e0 {
		t.Fatal("tombstone delete must not advance the layout epoch")
	}
	st.Compact()
	e1 := st.LayoutEpoch()
	if e1 == e0 {
		t.Fatal("compaction must advance the layout epoch")
	}
	st.Compact() // nothing pending: no reshuffle
	if st.LayoutEpoch() != e1 {
		t.Fatal("no-op compaction must not advance the layout epoch")
	}
}

// TestForEachPageMaxZero: a non-positive page size is a no-op that keeps
// the cursor put.
func TestForEachPageMaxZero(t *testing.T) {
	st := pageStore(t)
	next, done := st.ForEachPage(Pattern{}, 7, 0, func(rdf.Triple) bool {
		t.Fatal("fn must not run")
		return false
	})
	if next != 7 || done {
		t.Fatalf("got next=%d done=%v, want 7,false", next, done)
	}
}
