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

// TestScanIDsMatchesForEachID runs the differential of every scan entry
// point (checkScansAgainstModel: Sorted+Tail reproducing the ForEachID
// sequence is one of its checks) on a store with a sorted base, a pending
// delta and tombstones in both, before and after compaction.
func TestScanIDsMatchesForEachID(t *testing.T) {
	st := New()
	model := map[rdf.Triple]struct{}{}
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
		d := tr(fmt.Sprint("s", i%4), "p1", fmt.Sprint("d", i))
		batch = append(batch, d)
		if err := st.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range batch {
		model[tr] = struct{}{}
	}
	// And tombstones: one over the base, one over the delta, one revived.
	for _, dead := range []rdf.Triple{tr("s0", "p0", "o0"), tr("s1", "p1", "d1"), tr("s5", "p2", "o5")} {
		if !st.Delete(dead) {
			t.Fatalf("Delete(%v) = false", dead)
		}
		delete(model, dead)
	}
	if err := st.Add(tr("s5", "p2", "o5")); err != nil {
		t.Fatal(err)
	}
	model[tr("s5", "p2", "o5")] = struct{}{}
	if obs := st.Observe(); obs.Delta == 0 || obs.Tombstones == 0 {
		t.Fatalf("store holds no delta or no tombstones: %+v", obs)
	}

	checkScansAgainstModel(t, st, model)
	st.Compact()
	checkScansAgainstModel(t, st, model)
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
		if compareByName(run.Order, run.Sorted[i-1], run.Sorted[i]) >= 0 {
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
					if compareByName(run.Order, run.Sorted[j-1], run.Sorted[j]) >= 0 {
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
