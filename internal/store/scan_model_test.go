package store

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// compareByName compares two triples in the key sequence ord's name spells
// ("POS": predicate, object, subject) — the statement of a permutation's
// order the tests hold the permutations table to, written without it.
func compareByName(ord ScanOrder, a, b IDTriple) int {
	field := func(t IDTriple, c rune) ID {
		return map[rune]ID{'S': t.S, 'P': t.P, 'O': t.O}[c]
	}
	for _, c := range ord.String() {
		if x, y := field(a, c), field(b, c); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// TestPermutationTable holds every row of the table to its name: the key
// sequence is the name's letters, compare/Less agree with it, and the index
// a derived order's counting pass reorders is built before it.
func TestPermutationTable(t *testing.T) {
	built := map[ScanOrder]bool{OrderSPO: true}
	for _, ord := range derivedOrders {
		if !built[permutations[ord].from] {
			t.Errorf("%v is derived from %v before that is built", ord, permutations[ord].from)
		}
		built[ord] = true
	}
	for i, p := range permutations {
		ord := ScanOrder(i)
		if !built[ord] {
			t.Errorf("%v is never built", ord)
		}
		var name strings.Builder
		for _, pos := range p.key {
			name.WriteString(pos.String())
		}
		if name.String() != ord.String() {
			t.Errorf("%v: key sequence spells %q", ord, name.String())
		}
		for _, a := range []IDTriple{{1, 2, 3}, {3, 1, 2}, {2, 3, 1}, {2, 2, 2}} {
			for _, b := range []IDTriple{{1, 2, 3}, {1, 3, 2}, {2, 2, 3}, {3, 2, 1}} {
				want := compareByName(ord, a, b)
				if got := ord.compare(a, b); got != want {
					t.Errorf("%v.compare(%v, %v) = %d, want %d", ord, a, b, got, want)
				}
				if got := ord.Less(a, b); got != (want < 0) {
					t.Errorf("%v.Less(%v, %v) = %v", ord, a, b, got)
				}
			}
		}
	}
}

// checkScansAgainstModel is the differential of every scan entry point
// against a brute-force filter over a map-backed model, for all eight masks
// built from one model triple's terms: sequence-equal where the contract
// fixes the order (Statements; every sorted run; on a compacted store every
// scan), set-equal and consistent with ForEachID's sequence otherwise.
func checkScansAgainstModel(t *testing.T, st *Store, model map[rdf.Triple]struct{}) {
	t.Helper()
	encode := func(tr rdf.Triple) IDTriple {
		var e IDTriple
		var ok1, ok2, ok3 bool
		e.S, ok1 = st.LookupTermID(tr.S)
		e.P, ok2 = st.LookupTermID(tr.P)
		e.O, ok3 = st.LookupTermID(tr.O)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("model triple %v has a term the dictionary lacks", tr)
		}
		return e
	}
	decode := func(e IDTriple) rdf.Triple {
		ts := st.Terms([]ID{e.S, e.P, e.O})
		return rdf.Triple{S: ts[0], P: ts[1].(rdf.IRI), O: ts[2]}
	}
	var all []IDTriple
	for tr := range model {
		all = append(all, encode(tr))
	}
	slices.SortFunc(all, func(a, b IDTriple) int { return compareByName(OrderSPO, a, b) })
	obs := st.Observe()
	compacted := obs.Delta == 0 && obs.Tombstones == 0

	// Statements: always in (S, P, O) order, whatever the physical layout.
	if got := st.Statements(); !slices.Equal(got, all) {
		t.Errorf("Statements() = %d triples, want the model's %d in SPO order", len(got), len(all))
	}
	if len(all) == 0 {
		return
	}
	pick := all[len(all)/2]
	subjects := []ID{all[len(all)-1].S, pick.S, all[0].S, pick.S}
	var wantSubj []IDTriple
	for _, e := range all {
		if slices.Contains(subjects, e.S) {
			wantSubj = append(wantSubj, e)
		}
	}
	if got := st.Statements(subjects...); !slices.Equal(got, wantSubj) {
		t.Errorf("Statements(%v) = %v, want %v", subjects, got, wantSubj)
	}

	sameSet := func(what string, got, want []IDTriple) {
		t.Helper()
		got = slices.Clone(got)
		slices.SortFunc(got, func(a, b IDTriple) int { return compareByName(OrderSPO, a, b) })
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d triples %v, want the model's %d %v", what, len(got), got, len(want), want)
		}
	}
	for bits := 0; bits < 8; bits++ {
		var m IDTriple
		var pat Pattern
		term := decode(pick)
		if bits&1 != 0 {
			m.S, pat.S = pick.S, term.S
		}
		if bits&2 != 0 {
			m.P, pat.P = pick.P, term.P
		}
		if bits&4 != 0 {
			m.O, pat.O = pick.O, term.O
		}
		name := fmt.Sprintf("mask %03b", bits)
		var want []IDTriple // in SPO order
		for _, e := range all {
			if e.matches(m) {
				want = append(want, e)
			}
		}

		// ForEachID is the reference sequence of the positional scans.
		var seq []IDTriple
		st.ForEachID(m.S, m.P, m.O, func(e IDTriple) bool { seq = append(seq, e); return true })
		sameSet(name+" ForEachID", seq, want)
		anyOrd, _ := PermutationFor(m.S != 0, m.P != 0, m.O != 0, PosAny)
		if compacted && !slices.IsSortedFunc(seq, func(a, b IDTriple) int { return compareByName(anyOrd, a, b) }) {
			t.Errorf("%s ForEachID: compacted store, not in %v order: %v", name, anyOrd, seq)
		}
		stopped := 0
		st.ForEachID(m.S, m.P, m.O, func(IDTriple) bool { stopped++; return false })
		if stopped != min(1, len(want)) {
			t.Errorf("%s ForEachID: %d calls after fn returned false", name, stopped)
		}

		for _, size := range []int{1, 7, math.MaxInt} {
			var got []IDTriple
			var gotTerms []rdf.Triple
			for _, termSpace := range []bool{false, true} {
				pos, pages := 0, 0
				for done := false; !done; pages++ {
					if pages > len(seq)+1 {
						t.Fatalf("%s page size %d: scan does not end", name, size)
					}
					n := 0
					if termSpace {
						pos, done = st.ForEachPage(pat, pos, size, func(tr rdf.Triple) bool { gotTerms = append(gotTerms, tr); n++; return true })
					} else {
						pos, done = st.ForEachIDPage(m.S, m.P, m.O, pos, size, func(e IDTriple) bool { got = append(got, e); n++; return true })
					}
					if n > size || (!done && n < size) {
						t.Errorf("%s page size %d: a page of %d, done=%v", name, size, n, done)
					}
				}
			}
			if !slices.Equal(got, seq) {
				t.Errorf("%s ForEachIDPage size %d = %v, want ForEachID's %v", name, size, got, seq)
			}
			if !slices.EqualFunc(gotTerms, seq, func(tr rdf.Triple, e IDTriple) bool { return tr == decode(e) }) {
				t.Errorf("%s ForEachPage size %d = %v, want ForEachID's sequence decoded", name, size, gotTerms)
			}
		}

		var terms []rdf.Triple
		st.ForEach(pat, func(tr rdf.Triple) bool { terms = append(terms, tr); return true })
		match := st.Match(pat)
		for _, got := range [][]rdf.Triple{terms, match} {
			if !slices.EqualFunc(got, seq, func(tr rdf.Triple, e IDTriple) bool { return tr == decode(e) }) {
				t.Errorf("%s ForEach/Match = %v, want ForEachID's sequence decoded", name, got)
			}
		}
		if got := st.Count(pat); got != len(want) {
			t.Errorf("%s Count = %d, want %d", name, got, len(want))
		}
		if got := st.EstimateCountIDs(m.S, m.P, m.O); got != len(want) {
			t.Errorf("%s EstimateCountIDs = %d, want %d on a quiescent store", name, got, len(want))
		}

		for _, lead := range []Position{PosAny, PosS, PosP, PosO} {
			ord, servable := PermutationFor(m.S != 0, m.P != 0, m.O != 0, lead)
			run, ok := st.ScanIDs(m.S, m.P, m.O, lead)
			what := fmt.Sprintf("%s ScanIDs lead %v", name, lead)
			if ok != servable {
				t.Errorf("%s: ok=%v, PermutationFor says %v", what, ok, servable)
			}
			if !ok {
				continue
			}
			if run.Order != ord {
				t.Errorf("%s: order %v, want %v", what, run.Order, ord)
			}
			var both []IDTriple
			run.ForEach(func(e IDTriple) bool { both = append(both, e); return true })
			sameSet(what, both, want)
			for i := 1; i < len(run.Sorted); i++ {
				if compareByName(ord, run.Sorted[i-1], run.Sorted[i]) >= 0 {
					t.Errorf("%s: Sorted not strictly %v-ordered at %d", what, ord, i)
				}
			}
			if compacted && len(run.Tail) != 0 {
				t.Errorf("%s: compacted store, Tail = %v", what, run.Tail)
			}
			if lead == PosAny && !slices.Equal(both, seq) {
				t.Errorf("%s = %v, want ForEachID's %v", what, both, seq)
			}
			// Merged, the run is the model's matches in ord: fixed by the
			// data alone.
			inOrd := slices.Clone(want)
			slices.SortFunc(inOrd, func(a, b IDTriple) int { return compareByName(ord, a, b) })
			var merged []IDTriple
			run.ForEachSorted(func(e IDTriple) bool { merged = append(merged, e); return true })
			if !slices.Equal(merged, inOrd) {
				t.Errorf("%s ForEachSorted = %v, want %v", what, merged, inOrd)
			}
		}
	}
}
