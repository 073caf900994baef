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

// TestScanIDsConcurrentWriters hammers ScanIDs from readers while writers
// add, delete, and compact — primarily a race-detector target for the
// run's lock discipline.
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
						t.Error("unsorted run")
						return
					}
				}
				run.ForEach(func(e IDTriple) bool {
					if e.P != pid {
						t.Errorf("run holds %v, not under p1", e)
					}
					return true
				})
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestScanIDsLentRunHoldsStill: ScanIDs lends the index's own range, so the
// store must never write to an array it has installed, and a run's live set
// is fixed when it is taken. Runs lent from every permutation, and the index
// arrays themselves, are taken at every step and held across the ones after
// — writes that stay in the delta, writes that trigger merges, deletes that
// leave tombstones, an undelete, an explicit Compact and a snapshot
// round-trip — and must hold exactly what they held, and iterate the live
// entries they iterated when taken.
func TestScanIDsLentRunHoldsStill(t *testing.T) {
	var batch []rdf.Triple
	for i := 0; i < 2000; i++ {
		batch = append(batch, tr(fmt.Sprint("s", i), fmt.Sprint("p", i%4), fmt.Sprint("o", i%100)))
	}
	st, err := Load(batch)
	if err != nil {
		t.Fatal(err)
	}

	live := func(run IDRun) []IDTriple {
		var out []IDTriple
		run.ForEach(func(e IDTriple) bool { out = append(out, e); return true })
		return out
	}
	type held struct {
		name       string
		arr, clone []IDTriple // a lent range or an index array, and a copy
		run        IDRun      // the run the range was lent to (zero for an index)
		live       []IDTriple // the run's live entries when it was taken
	}
	var holds []held
	hold := func(name string, s, p, o ID, lead Position) IDRun {
		t.Helper()
		before := st.Observe().ScanRuns
		run, ok := st.ScanIDs(s, p, o, lead)
		if !ok {
			t.Fatalf("%s: ScanIDs declined", name)
		}
		if st.Observe().ScanRuns != before+1 || len(run.Sorted) == 0 || cap(run.Sorted) != len(run.Sorted) {
			t.Fatalf("%s: want a lent, non-empty, clipped run; got %d entries, cap %d", name, len(run.Sorted), cap(run.Sorted))
		}
		holds = append(holds, held{name, run.Sorted, slices.Clone(run.Sorted), run, live(run)})
		return run
	}
	// holdAll lends a run of every shape from the store as it is now, and
	// holds its index arrays; it returns how many tombstones the runs list.
	holdAll := func(step string) (dead int) {
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
		for _, run := range []IDRun{
			hold(step+": all by S", 0, 0, 0, PosS),
			hold(step+": all by P", 0, 0, 0, PosP),
			hold(step+": all by O", 0, 0, 0, PosO),
			hold(step+": p1 by S", 0, p1, 0, PosS),
			hold(step+": p1 by O", 0, p1, 0, PosO),
			hold(step+": s1999", s1999, 0, 0, PosAny),
			hold(step+": o3", 0, 0, o3, PosAny),
			hold(step+": p3 o3 by S", 0, p3, o3, PosS),
		} {
			dead += len(run.Dead)
		}
		for ord, idx := range st.index {
			holds = append(holds, held{name: step + ": index " + ScanOrder(ord).String(), arr: idx, clone: slices.Clone(idx)})
		}
		return dead
	}
	// check compares everything held so far, then holds what the store has
	// now, so every array it installs is held across the steps after.
	check := func(step string) (dead int) {
		t.Helper()
		for _, h := range holds {
			if !slices.Equal(h.arr, h.clone) {
				t.Fatalf("after %s: %s changed under its reader", step, h.name)
			}
			if got := live(h.run); !slices.Equal(got, h.live) {
				t.Fatalf("after %s: %s iterates %d live entries, %d when taken", step, h.name, len(got), len(h.live))
			}
		}
		return holdAll(step)
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

	// A tombstoned store: the runs held from here on list Dead entries.
	if _, err := st.DeleteBatch(batch[1500:1540]); err != nil {
		t.Fatal(err)
	}
	st.Delete(bulk[3]) // o3, under p3
	if st.Observe().Tombstones == 0 {
		t.Fatal("the deletes left no tombstones")
	}
	if dead := check("deletes that leave tombstones"); dead == 0 {
		t.Fatal("no run taken from the tombstoned store lists a Dead entry")
	}
	st.Add(batch[1500])
	st.Add(bulk[3])
	check("an undelete")
	if _, err := st.DeleteBatch(batch[1540:1560]); err != nil {
		t.Fatal(err)
	}
	check("further deletes")

	st.Delete(batch[1560])
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
// readers while a writer grows the store, tombstones some of its own earlier
// writes (merged into the base by then, so runs list them as Dead) and
// compacts it; run under -race, a write to an array a reader was lent is a
// reported race.
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
			if i%3 == 0 && i >= 60 {
				st.Delete(tr(fmt.Sprint("w", i-60), "p1", fmt.Sprint("o", (i-60)%100)))
			}
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
	if o := st.Observe(); o.ScanRuns != 800 {
		t.Fatalf("%d runs taken, want 800", o.ScanRuns)
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
