package store

import (
	"bytes"
	"fmt"
	"slices"
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

// TestScanIDsEpochRestart forces a compaction between the pages of a copied
// run — a tombstone keeps the store from lending the range — so the scan
// must notice the layout-epoch bump, restart, and still produce the right
// result; when every attempt is invalidated it must fall back to the
// single-lock scan.
func TestScanIDsEpochRestart(t *testing.T) {
	st := New()
	original := func(i int) rdf.Triple { return tr(fmt.Sprint("s", i), "p", fmt.Sprint("o", i%5)) }
	var batch []rdf.Triple
	for i := 0; i < 300; i++ {
		batch = append(batch, original(i))
	}
	if err := st.AddAll(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if !st.Delete(original(0)) {
		t.Fatal("Delete(s0) = false")
	}
	pid, _ := st.LookupTermID(iri("p"))

	oldPage := scanIDsPageSize
	scanIDsPageSize = 64
	defer func() { scanIDsPageSize = oldPage; scanIDsBetweenPages = nil }()

	// churn adds a triple and compacts, which drops every tombstone, then
	// deletes an original, so the attempt after it copies again.
	churn := func(n int) {
		st.Add(tr(fmt.Sprint("extra", n), "p", "oX"))
		st.Compact()
		st.Delete(original(n))
	}
	runs := func() (lent, copied uint64) {
		o := st.Observe()
		return o.ScanRunsLent, o.ScanRunsCopied
	}

	// One mid-scan compaction: restart then succeed.
	bumps := 0
	scanIDsBetweenPages = func() {
		if bumps == 0 {
			bumps++
			churn(1)
		}
	}
	lent0, copied0 := runs()
	run, ok := st.ScanIDs(0, pid, 0, PosS)
	if !ok {
		t.Fatal("ScanIDs declined")
	}
	if got := len(run.Sorted) + len(run.Tail); got != 299 {
		t.Fatalf("after one epoch bump: got %d triples, want 299", got)
	}
	if bumps != 1 {
		t.Fatalf("hook ran %d times, want 1", bumps)
	}
	if lent, copied := runs(); lent != lent0 || copied != copied0+1 {
		t.Fatalf("runs lent %d, copied %d; want the one restarted run copied", lent-lent0, copied-copied0)
	}

	// Perpetual compactions: every paged attempt is invalidated, the
	// single-lock fallback must still answer (the hook runs lock-free, so
	// the fallback scan itself cannot trigger it).
	n := 2
	scanIDsBetweenPages = func() {
		churn(n)
		n++
	}
	run, ok = st.ScanIDs(0, pid, 0, PosS)
	if !ok {
		t.Fatal("ScanIDs declined under perpetual compaction")
	}
	if n != 2+scanIDsRestartAttempts {
		t.Fatalf("hook ran %d times, want one per paged attempt (%d)", n-2, scanIDsRestartAttempts)
	}
	if got := len(run.Sorted) + len(run.Tail); got != 299 || got != st.Len() {
		t.Fatalf("fallback scan: got %d triples, want 299 (the store holds %d)", got, st.Len())
	}
	for i := 1; i < len(run.Sorted); i++ {
		if compareByName(run.Order, run.Sorted[i-1], run.Sorted[i]) >= 0 {
			t.Fatalf("fallback Sorted not ordered at %d", i)
		}
	}
	if lent, copied := runs(); lent != lent0 || copied != copied0+2 {
		t.Fatalf("runs lent %d, copied %d; want the fallback run copied too", lent-lent0, copied-copied0)
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

// TestScanIDsLentRunHoldsStill: with no tombstones ScanIDs lends the index's
// own range, so the store must never write to an array it has installed.
// Runs lent from every permutation, and the index arrays themselves, are
// taken at every step and held across the ones after — writes that stay in
// the delta, writes that trigger merges, deletes, an explicit Compact and a
// snapshot round-trip — and must hold exactly what they held.
func TestScanIDsLentRunHoldsStill(t *testing.T) {
	var batch []rdf.Triple
	for i := 0; i < 2000; i++ {
		batch = append(batch, tr(fmt.Sprint("s", i), fmt.Sprint("p", i%4), fmt.Sprint("o", i%100)))
	}
	st, err := Load(batch)
	if err != nil {
		t.Fatal(err)
	}

	type held struct {
		name       string
		run, clone []IDTriple
	}
	var holds []held
	hold := func(name string, s, p, o ID, lead Position) {
		t.Helper()
		before := st.Observe().ScanRunsLent
		run, ok := st.ScanIDs(s, p, o, lead)
		if !ok {
			t.Fatalf("%s: ScanIDs declined", name)
		}
		if st.Observe().ScanRunsLent != before+1 || len(run.Sorted) == 0 || cap(run.Sorted) != len(run.Sorted) {
			t.Fatalf("%s: want a lent, non-empty, clipped run; got %d entries, cap %d", name, len(run.Sorted), cap(run.Sorted))
		}
		holds = append(holds, held{name, run.Sorted, slices.Clone(run.Sorted)})
	}
	// holdAll lends a run of every shape from the store as it is now, and
	// holds its index arrays. Call it only when there are no tombstones.
	holdAll := func(step string) {
		t.Helper()
		id := func(name string) ID {
			t.Helper()
			v, ok := st.LookupTermID(iri(name))
			if !ok {
				t.Fatalf("%s not in the dictionary", name)
			}
			return v
		}
		p1, p3, s1999, o3 := id("p1"), id("p3"), id("s1999"), id("o3")
		hold(step+": all by S", 0, 0, 0, PosS)
		hold(step+": all by P", 0, 0, 0, PosP)
		hold(step+": all by O", 0, 0, 0, PosO)
		hold(step+": p1 by S", 0, p1, 0, PosS)
		hold(step+": p1 by O", 0, p1, 0, PosO)
		hold(step+": s1999", s1999, 0, 0, PosAny)
		hold(step+": o3", 0, 0, o3, PosAny)
		hold(step+": p3 o3 by S", 0, p3, o3, PosS)
		for ord, idx := range st.index {
			holds = append(holds, held{step + ": index " + ScanOrder(ord).String(), idx, slices.Clone(idx)})
		}
	}
	// check compares everything held so far, then holds what the store has
	// now, so every array it installs is held across the steps after.
	check := func(step string) {
		t.Helper()
		for _, h := range holds {
			if !slices.Equal(h.run, h.clone) {
				t.Fatalf("after %s: %s changed under its reader", step, h.name)
			}
		}
		holdAll(step)
	}
	holdAll("loaded")

	var more []rdf.Triple
	for i := 0; i < 100; i++ {
		more = append(more, tr(fmt.Sprint("s", i), "p1", "oNew"))
	}
	if _, err := st.AddBatch(more); err != nil {
		t.Fatal(err)
	}
	check("an add that stays in the delta")
	if st.Observe().Delta == 0 {
		t.Fatal("the add did not stay in the delta")
	}

	var bulk []rdf.Triple
	for i := 0; i < 1500; i++ {
		bulk = append(bulk, tr(fmt.Sprint("bulk", i), fmt.Sprint("p", i%4), "o3"))
	}
	epoch := st.LayoutEpoch()
	if _, err := st.AddBatch(bulk); err != nil {
		t.Fatal(err)
	}
	if st.LayoutEpoch() == epoch {
		t.Fatal("the bulk add did not merge")
	}
	check("an add that merges")

	epoch = st.LayoutEpoch()
	if _, err := st.DeleteBatch(batch[:1500]); err != nil {
		t.Fatal(err)
	}
	if st.LayoutEpoch() == epoch {
		t.Fatal("the bulk delete did not merge")
	}
	check("a delete that merges")

	st.Delete(batch[1500])
	st.Add(tr("late", "p1", "o3"))
	st.Compact()
	check("Compact")

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != st.Len() {
		t.Fatalf("restored %d triples, want %d", restored.Len(), st.Len())
	}
	check("a snapshot round-trip")
}

// TestScanIDsLentRunsBesideCompactingWriter iterates lent runs from several
// readers while an add-only writer (no tombstones, so every run is lent)
// grows the store and compacts it; run under -race, a write to an array a
// reader was lent is a reported race.
func TestScanIDsLentRunsBesideCompactingWriter(t *testing.T) {
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

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Add(tr(fmt.Sprint("w", i), "p1", fmt.Sprint("o", i%100)))
			if i%40 == 0 {
				st.Compact()
			}
		}
	}()
	var readers sync.WaitGroup
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
						t.Error("lent run out of order")
						return
					}
				}
				n := 0
				run.ForEachSorted(func(e IDTriple) bool {
					if e.P != pid {
						t.Errorf("lent run holds %v, not under p1", e)
					}
					n++
					return true
				})
				if n < 500 {
					t.Errorf("lent run holds %d triples, want at least the 500 loaded", n)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
	if o := st.Observe(); o.ScanRunsCopied != 0 || o.ScanRunsLent != 800 {
		t.Fatalf("runs lent %d, copied %d; want all 800 lent", o.ScanRunsLent, o.ScanRunsCopied)
	}
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
