package store

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// idPageStore is pageStore plus tombstones in both regions: one base triple
// and one delta triple deleted, so paged ID scans must skip dead entries on
// either side of the base/delta boundary.
func idPageStore(t *testing.T) *Store {
	t.Helper()
	st := pageStore(t)
	for _, i := range []int{5, 55} {
		tr := rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://p/e%d", i)),
			P: "http://p/v",
			O: rdf.NewInteger(int64(i)),
		}
		if !st.Delete(tr) {
			t.Fatalf("Delete(e%d) = false, want true", i)
		}
	}
	return st
}

// collectIDPages drains a mask through ForEachIDPage with the given page
// size, resuming from the returned cursor until the scan reports done.
func collectIDPages(t *testing.T, st *Store, s, p, o ID, pageSize int) []IDTriple {
	t.Helper()
	var got []IDTriple
	pos := 0
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("ForEachIDPage never reported done")
		}
		next, done := st.ForEachIDPage(s, p, o, pos, pageSize, func(tr IDTriple) bool {
			got = append(got, tr)
			return true
		})
		if done {
			return got
		}
		if next < pos {
			t.Fatalf("cursor moved backwards: %d -> %d", pos, next)
		}
		pos = next
	}
}

func TestForEachIDPageEquivalence(t *testing.T) {
	st := idPageStore(t)
	sid, ok := st.LookupTermID(rdf.IRI("http://p/e3"))
	if !ok {
		t.Fatal("e3 not in dictionary")
	}
	pid, ok := st.LookupTermID(rdf.IRI("http://p/v"))
	if !ok {
		t.Fatal("predicate not in dictionary")
	}
	masks := []struct {
		name    string
		s, p, o ID
	}{
		{"full", 0, 0, 0},
		{"subject", sid, 0, 0},
		{"predicate", 0, pid, 0},
	}
	for _, m := range masks {
		var want []IDTriple
		st.ForEachID(m.s, m.p, m.o, func(tr IDTriple) bool {
			want = append(want, tr)
			return true
		})
		if len(want) == 0 {
			t.Fatalf("%s: empty oracle", m.name)
		}
		for _, size := range []int{1, 3, 7, 64, 1000} {
			got := collectIDPages(t, st, m.s, m.p, m.o, size)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/page=%d: got %d triples, want %d (sequences differ)",
					m.name, size, len(got), len(want))
			}
		}
	}
}

func TestForEachIDPageEarlyStopResumes(t *testing.T) {
	st := idPageStore(t)
	var want []IDTriple
	st.ForEachID(0, 0, 0, func(tr IDTriple) bool {
		want = append(want, tr)
		return true
	})

	// Stop mid-page: the scan reports done, but the cursor it returns is a
	// valid resume point that skips everything already visited.
	var head []IDTriple
	next, done := st.ForEachIDPage(0, 0, 0, 0, 1000, func(tr IDTriple) bool {
		head = append(head, tr)
		return len(head) < 3
	})
	if !done {
		t.Fatal("fn returning false should report done")
	}
	if len(head) != 3 {
		t.Fatalf("visited %d before stopping, want 3", len(head))
	}
	var tail []IDTriple
	pos := next
	for {
		n, d := st.ForEachIDPage(0, 0, 0, pos, 16, func(tr IDTriple) bool {
			tail = append(tail, tr)
			return true
		})
		if d {
			break
		}
		pos = n
	}
	if got := append(head, tail...); !reflect.DeepEqual(got, want) {
		t.Fatalf("stop+resume visited %d triples, want %d with identical order", len(got), len(want))
	}
}

func TestForEachIDPageMaxBelowOne(t *testing.T) {
	st := idPageStore(t)
	calls := 0
	next, done := st.ForEachIDPage(0, 0, 0, 7, 0, func(IDTriple) bool {
		calls++
		return true
	})
	if calls != 0 || done || next != 7 {
		t.Fatalf("max=0: calls=%d next=%d done=%v, want 0/7/false", calls, next, done)
	}
}

func TestIDRunForEachSortedMergesUnsortedTail(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 20; i++ {
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
	// Descending-order adds: the delta tail's dictionary IDs arrive in
	// reverse of the permutation order, so the merge actually has to work.
	for i := 29; i >= 20; i-- {
		if err := st.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://p/e%d", i)),
			P: "http://p/v",
			O: rdf.NewInteger(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	pid, _ := st.LookupTermID(rdf.IRI("http://p/v"))
	run, ok := st.ScanIDs(0, pid, 0, PosAny)
	if !ok {
		t.Fatal("ScanIDs not ok")
	}
	if len(run.Tail) != 10 {
		t.Fatalf("delta tail has %d entries, want 10", len(run.Tail))
	}
	var merged []IDTriple
	if !run.ForEachSorted(func(tr IDTriple) bool {
		merged = append(merged, tr)
		return true
	}) {
		t.Fatal("full iteration reported early stop")
	}
	if len(merged) != 30 {
		t.Fatalf("merged %d triples, want 30", len(merged))
	}
	if !sort.SliceIsSorted(merged, func(i, j int) bool { return run.Order.Less(merged[i], merged[j]) }) {
		t.Fatalf("ForEachSorted emitted out-of-order sequence in %v", run.Order)
	}
	// Same multiset as the live scan.
	var live []IDTriple
	st.ForEachID(0, pid, 0, func(tr IDTriple) bool {
		live = append(live, tr)
		return true
	})
	sort.Slice(live, func(i, j int) bool { return run.Order.Less(live[i], live[j]) })
	if !reflect.DeepEqual(merged, live) {
		t.Fatal("merged run disagrees with ForEachID content")
	}
	// Early stop propagates.
	n := 0
	if run.ForEachSorted(func(IDTriple) bool { n++; return n < 5 }) {
		t.Fatal("early stop should report false")
	}
	if n != 5 {
		t.Fatalf("stopped after %d, want 5", n)
	}
}

// TestComputeStatsDifferential requires ComputeStats to equal a term-space
// recount (recountStats) over a store with base, delta, and tombstones.
func TestComputeStatsDifferential(t *testing.T) {
	// Inline entity dataset (internal/gen would be an import cycle here):
	// classes, labels, two categorical properties, numerics, and links.
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		e := rdf.IRI(fmt.Sprintf("http://x/entity%d", i))
		triples = append(triples,
			rdf.Triple{S: e, P: rdf.RDFType, O: rdf.IRI(fmt.Sprintf("http://x/Class%d", i%3))},
			rdf.Triple{S: e, P: rdf.RDFSLabel, O: rdf.NewLiteral(fmt.Sprintf("entity %d", i))},
			rdf.Triple{S: e, P: "http://x/cat0", O: rdf.NewLiteral(fmt.Sprintf("category-%d", i%5))},
			rdf.Triple{S: e, P: "http://x/cat1", O: rdf.NewLiteral(fmt.Sprintf("category-%d", (i/3)%5))},
			rdf.Triple{S: e, P: "http://x/num", O: rdf.NewDouble(float64(i) * 1.5)},
			rdf.Triple{S: e, P: "http://x/link", O: rdf.IRI(fmt.Sprintf("http://x/entity%d", (i*7)%200))},
		)
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	// Delta adds and deletes in both regions.
	for i := 0; i < 7; i++ {
		if err := st.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://x/extra%d", i)),
			P: "http://x/p",
			O: rdf.NewInteger(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Delete(triples[0]) || !st.Delete(triples[len(triples)-1]) {
		t.Fatal("seed deletes failed")
	}
	if !st.Delete(rdf.Triple{S: rdf.IRI("http://x/extra3"), P: "http://x/p", O: rdf.NewInteger(3)}) {
		t.Fatal("delta delete failed")
	}

	want := recountStats(st)
	got := st.ComputeStats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ComputeStats diverges from term-space oracle:\n got %+v\nwant %+v", got, want)
	}
}
