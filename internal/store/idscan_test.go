package store

import (
	"fmt"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// TestPermutationFor pins the full selection table: every bound/unbound mask
// crossed with every lead preference, including the two masks no permutation
// can serve in lead order.
func TestPermutationFor(t *testing.T) {
	cases := []struct {
		s, p, o bool
		lead    Position
		want    ScanOrder
		ok      bool
	}{
		// PosAny: the default permutation per mask; always available.
		{false, false, false, PosAny, OrderSPO, true},
		{true, false, false, PosAny, OrderSPO, true},
		{false, true, false, PosAny, OrderPOS, true},
		{false, false, true, PosAny, OrderOSP, true},
		{true, true, false, PosAny, OrderSPO, true},
		{true, false, true, PosAny, OrderOSP, true},
		{false, true, true, PosAny, OrderPOS, true},
		{true, true, true, PosAny, OrderSPO, true},

		// Lead S: available for every mask with S unbound.
		{false, false, false, PosS, OrderSPO, true},
		{false, true, false, PosS, OrderPSO, true},
		{false, false, true, PosS, OrderOSP, true},
		{false, true, true, PosS, OrderPOS, true},
		{true, false, false, PosS, 0, false}, // lead must be unbound
		{true, true, true, PosS, 0, false},

		// Lead P.
		{false, false, false, PosP, OrderPSO, true},
		{true, false, false, PosP, OrderSPO, true},
		{true, false, true, PosP, OrderOSP, true},
		{false, false, true, PosP, 0, false}, // would need OPS
		{false, true, false, PosP, 0, false}, // lead must be unbound

		// Lead O.
		{false, false, false, PosO, OrderOSP, true},
		{false, true, false, PosO, OrderPOS, true},
		{true, true, false, PosO, OrderSPO, true},
		{true, false, false, PosO, 0, false}, // would need SOP
		{false, false, true, PosO, 0, false}, // lead must be unbound
	}
	for _, c := range cases {
		got, ok := PermutationFor(c.s, c.p, c.o, c.lead)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("PermutationFor(s=%v p=%v o=%v lead=%v) = %v,%v; want %v,%v",
				c.s, c.p, c.o, c.lead, got, ok, c.want, c.ok)
		}
	}
}

// TestScanIDsMatchesForEachID checks that Sorted+Tail reproduces exactly the
// ForEachID sequence for every mask shape, across a store with both a sorted
// base and a pending delta.
func TestScanIDsMatchesForEachID(t *testing.T) {
	st := New()
	var batch []rdf.Triple
	for i := 0; i < 50; i++ {
		batch = append(batch, tr(fmt.Sprint("s", i%10), fmt.Sprint("p", i%3), fmt.Sprint("o", i%7)))
	}
	if err := st.AddAll(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	// Leave some triples in the delta.
	for i := 0; i < 9; i++ {
		if err := st.Add(tr(fmt.Sprint("s", i%4), "p1", fmt.Sprint("d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// And a tombstone.
	st.Delete(tr("s0", "p0", "o0"))

	pid, _ := st.LookupTermID(iri("p1"))
	sid, _ := st.LookupTermID(iri("s1"))
	oid, _ := st.LookupTermID(iri("o1"))
	masks := []struct {
		s, p, o ID
		lead    Position
	}{
		{0, 0, 0, PosAny},
		{0, 0, 0, PosS},
		{0, 0, 0, PosP},
		{0, 0, 0, PosO},
		{sid, 0, 0, PosAny},
		{sid, 0, 0, PosP},
		{0, pid, 0, PosAny},
		{0, pid, 0, PosS},
		{0, 0, oid, PosAny},
		{0, 0, oid, PosS},
		{sid, pid, 0, PosO},
		{0, pid, oid, PosS},
		{sid, 0, oid, PosP},
		{sid, pid, oid, PosAny},
	}
	for _, m := range masks {
		run, ok := st.ScanIDs(m.s, m.p, m.o, m.lead)
		if !ok {
			t.Fatalf("ScanIDs(%d,%d,%d,%v) declined", m.s, m.p, m.o, m.lead)
		}
		got := append(append([]IDTriple{}, run.Sorted...), run.Tail...)
		// ForEachID follows the PosAny permutation, so orders differ when
		// the lead forces another index; compare as sets plus verify the
		// sorted half is actually sorted in run.Order.
		want := map[IDTriple]int{}
		st.ForEachID(m.s, m.p, m.o, func(tr IDTriple) bool {
			want[tr]++
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("mask %+v: got %d triples, want %d", m, len(got), len(want))
		}
		for _, tr := range got {
			if want[tr] == 0 {
				t.Fatalf("mask %+v: unexpected triple %v", m, tr)
			}
			want[tr]--
		}
		for i := 1; i < len(run.Sorted); i++ {
			if !lessInOrder(run.Order, run.Sorted[i-1], run.Sorted[i]) {
				t.Fatalf("mask %+v: Sorted not strictly %v-ordered at %d", m, run.Order, i)
			}
		}
		if m.lead == PosAny {
			// PosAny must additionally reproduce ForEachID's exact order.
			var seq []IDTriple
			st.ForEachID(m.s, m.p, m.o, func(tr IDTriple) bool {
				seq = append(seq, tr)
				return true
			})
			for i := range seq {
				if got[i] != seq[i] {
					t.Fatalf("mask %+v: order diverges at %d: %v vs %v", m, i, got[i], seq[i])
				}
			}
		}
	}
}

func lessInOrder(ord ScanOrder, a, b IDTriple) bool {
	ea, eb := enc{a.S, a.P, a.O}, enc{b.S, b.P, b.O}
	switch ord {
	case OrderPOS:
		return lessPOS(ea, eb)
	case OrderOSP:
		return lessOSP(ea, eb)
	case OrderPSO:
		return cmpPSO(ea, eb) < 0
	default:
		return lessSPO(ea, eb)
	}
}

// TestScanIDsEpochRestart forces a compaction between pages: the scan must
// notice the layout-epoch bump, restart, and still produce the right result;
// when every attempt is invalidated it must fall back to the single-lock scan.
func TestScanIDsEpochRestart(t *testing.T) {
	st := New()
	var batch []rdf.Triple
	for i := 0; i < 300; i++ {
		batch = append(batch, tr(fmt.Sprint("s", i), "p", fmt.Sprint("o", i%5)))
	}
	if err := st.AddAll(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	pid, _ := st.LookupTermID(iri("p"))

	oldPage := scanIDsPageSize
	scanIDsPageSize = 64
	defer func() { scanIDsPageSize = oldPage; scanIDsBetweenPages = nil }()

	// One mid-scan compaction: restart then succeed.
	bumps := 0
	scanIDsBetweenPages = func() {
		if bumps == 0 {
			bumps++
			st.Add(tr("extra", "p", "oX"))
			st.Compact()
		}
	}
	run, ok := st.ScanIDs(0, pid, 0, PosS)
	if !ok {
		t.Fatal("ScanIDs declined")
	}
	if got := len(run.Sorted) + len(run.Tail); got != 301 {
		t.Fatalf("after one epoch bump: got %d triples, want 301", got)
	}
	if bumps != 1 {
		t.Fatalf("hook ran %d times, want 1", bumps)
	}

	// Perpetual compactions: every paged attempt is invalidated, the
	// single-lock fallback must still answer (the hook runs lock-free, so
	// the fallback scan itself cannot trigger it).
	n := 302
	scanIDsBetweenPages = func() {
		st.Add(tr(fmt.Sprint("extra", n), "p", "oX"))
		st.Compact()
		n++
	}
	run, ok = st.ScanIDs(0, pid, 0, PosS)
	if !ok {
		t.Fatal("ScanIDs declined under perpetual compaction")
	}
	if got := len(run.Sorted) + len(run.Tail); got < 301 {
		t.Fatalf("fallback scan lost triples: got %d, want >= 301", got)
	}
	for i := 1; i < len(run.Sorted); i++ {
		if !lessInOrder(run.Order, run.Sorted[i-1], run.Sorted[i]) {
			t.Fatalf("fallback Sorted not ordered at %d", i)
		}
	}
}

// TestScanIDsConcurrentWriters hammers ScanIDs from readers while writers
// add, delete, and compact — primarily a race-detector target for the paged
// scan's lock discipline.
func TestScanIDsConcurrentWriters(t *testing.T) {
	st := New()
	var batch []rdf.Triple
	for i := 0; i < 2000; i++ {
		batch = append(batch, tr(fmt.Sprint("s", i), fmt.Sprint("p", i%4), fmt.Sprint("o", i%100)))
	}
	if err := st.AddAll(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	pid, _ := st.LookupTermID(iri("p1"))

	oldPage := scanIDsPageSize
	scanIDsPageSize = 128
	defer func() { scanIDsPageSize = oldPage }()

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
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
				tp := tr(fmt.Sprint("w", w, "-", i), "p1", "oW")
				st.Add(tp)
				if i%3 == 0 {
					st.Delete(tp)
				}
				if i%50 == 0 {
					st.Compact()
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				run, ok := st.ScanIDs(0, pid, 0, PosS)
				if !ok {
					t.Error("ScanIDs declined")
					return
				}
				for j := 1; j < len(run.Sorted); j++ {
					if !lessInOrder(run.Order, run.Sorted[j-1], run.Sorted[j]) {
						t.Error("unsorted page result")
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestEstimateCountBoundObject pins the satellite regression: a bound-object
// pattern must be costed by its exact OSP range, not the whole store.
func TestEstimateCountBoundObject(t *testing.T) {
	st := New()
	var batch []rdf.Triple
	for i := 0; i < 1000; i++ {
		batch = append(batch, tr(fmt.Sprint("s", i), "p", fmt.Sprint("o", i%100)))
	}
	// One rare object.
	batch = append(batch, tr("needle", "p", "rare"))
	if err := st.AddAll(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()

	if got := estimateCount(st, Pattern{O: iri("rare")}); got != 1 {
		t.Fatalf("bound-object estimate = %d, want 1 (whole store is %d)", got, st.Len())
	}
	if got := estimateCount(st, Pattern{P: iri("p"), O: iri("rare")}); got != 1 {
		t.Fatalf("bound-p+o estimate = %d, want 1", got)
	}
	// And with the match still in the delta.
	if err := st.Add(tr("fresh", "p", "rare2")); err != nil {
		t.Fatal(err)
	}
	if got := estimateCount(st, Pattern{O: iri("rare2")}); got != 1 {
		t.Fatalf("delta bound-object estimate = %d, want 1", got)
	}
}

// TestTermsBatchDecode checks the batch decoder, including unknown IDs.
func TestTermsBatchDecode(t *testing.T) {
	st := New()
	if err := st.Add(tr("s", "p", "o")); err != nil {
		t.Fatal(err)
	}
	sid, _ := st.LookupTermID(iri("s"))
	out := st.Terms([]ID{sid, 0, 9999})
	if out[0] != rdf.Term(iri("s")) || out[1] != nil || out[2] != nil {
		t.Fatalf("Terms = %v", out)
	}
}
