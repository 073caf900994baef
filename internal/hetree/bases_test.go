package hetree

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// valueStore holds n subjects with one distinct num value each, and a label.
func valueStore(tb testing.TB, n int) *store.Store {
	tb.Helper()
	triples := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		// Scattered, so the collection has sorting to do.
		v := float64((i*7919)%n) + 0.5
		triples = append(triples,
			rdf.Triple{S: gen.Res("e", i), P: gen.Prop("num"), O: rdf.NewDouble(v)},
			rdf.Triple{S: gen.Res("e", i), P: rdf.RDFSLabel, O: rdf.NewLiteral(fmt.Sprint("e", i))})
	}
	st, err := store.Load(triples)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func mustTree(t *testing.T, b *Bases, prop rdf.IRI, opts Options) *Tree {
	t.Helper()
	tree, err := b.Tree(context.Background(), prop, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestBasesKeepBaseUntilPropertyWritten walks a base through the store's
// generations: shared by trees of any shape, carried across writes that do
// not name the property, collected again after one that does or after the
// change log has lost the span.
func TestBasesKeepBaseUntilPropertyWritten(t *testing.T) {
	st := valueStore(t, 200)
	num := gen.Prop("num")
	b := NewBases(st, st)
	expect := func(step string, built, reused uint64) {
		t.Helper()
		if s := b.Stats(); s.Built != built || s.Reused != reused {
			t.Fatalf("%s: built %d, reused %d; want %d, %d", step, s.Built, s.Reused, built, reused)
		}
	}

	first := mustTree(t, b, num, Options{Degree: 4, LeafCapacity: 8, Incremental: true})
	expect("first tree", 1, 0)
	other := mustTree(t, b, num, Options{Mode: RangeBased, Degree: 2, LeafCapacity: 50})
	expect("another shape", 1, 1)
	if other.base != first.base {
		t.Fatal("two trees over one property at one generation do not share a base")
	}
	if first.MaterializedNodes() != 1 || other.MaterializedNodes() == 1 {
		t.Fatalf("trees share more than the base: %d and %d nodes", first.MaterializedNodes(), other.MaterializedNodes())
	}

	if err := st.Add(rdf.Triple{S: gen.Res("e", 0), P: gen.Prop("note"), O: rdf.NewLiteral("x")}); err != nil {
		t.Fatal(err)
	}
	if tr := mustTree(t, b, num, Options{}); tr.base != first.base {
		t.Fatal("a write to another property replaced the base")
	}
	expect("write elsewhere", 1, 2)

	extra := rdf.Triple{S: gen.Res("late", 0), P: num, O: rdf.NewDouble(-1)}
	if err := st.Add(extra); err != nil {
		t.Fatal(err)
	}
	grown := mustTree(t, b, num, Options{})
	expect("write to the property", 2, 2)
	if grown.Len() != 201 || grown.Root().Min != -1 || first.Len() != 200 {
		t.Fatalf("after the write: %d values from %g, the tree from before holds %d", grown.Len(), grown.Root().Min, first.Len())
	}
	st.Delete(extra)
	if tr := mustTree(t, b, num, Options{}); tr.Len() != 200 {
		t.Fatalf("after the delete: %d values, want 200", tr.Len())
	}
	expect("delete from the property", 3, 2)

	// One batch larger than the change log retains, none of it under num:
	// nothing vouches for the span, so the base is collected again.
	bulk := make([]rdf.Triple, 70_000)
	for i := range bulk {
		bulk[i] = rdf.Triple{S: gen.Res("bulk", i), P: gen.Prop("note"), O: rdf.NewLiteral("b")}
	}
	if _, err := st.AddBatch(bulk); err != nil {
		t.Fatal(err)
	}
	mustTree(t, b, num, Options{})
	expect("log overrun", 4, 2)
	mustTree(t, b, num, Options{})
	expect("after the overrun", 4, 3)

	// Properties without a value on the axis: unknown to the dictionary, or
	// known and kept as an empty base.
	for i := 0; i < 2; i++ {
		if _, err := b.Tree(context.Background(), "http://nowhere/prop", Options{}); err != ErrNoValues {
			t.Fatalf("unknown property: err = %v, want ErrNoValues", err)
		}
		if _, err := b.Tree(context.Background(), rdf.RDFSLabel, Options{}); err != ErrNoValues {
			t.Fatalf("string property: err = %v, want ErrNoValues", err)
		}
	}
	expect("properties without values", 5, 4)
}

// TestAdaptLeavesSharedBaseAlone: adapting one tree changes neither the base
// nor another tree cutting it.
func TestAdaptLeavesSharedBaseAlone(t *testing.T) {
	st := valueStore(t, 300)
	b := NewBases(st, st)
	opts := Options{Degree: 4, LeafCapacity: 10, Incremental: true}
	adapted, witness := mustTree(t, b, gen.Prop("num"), opts), mustTree(t, b, gen.Prop("num"), opts)
	base := witness.base
	values, subjects, prefix := slices.Clone(base.values), slices.Clone(base.subjects), slices.Clone(base.prefix)
	before := witness.LevelFor(16)

	if err := adapted.Adapt(8, 50); err != nil {
		t.Fatal(err)
	}
	if got := adapted.LevelFor(16); len(got) != 6 || adapted.MaterializedNodes() != 7 {
		t.Fatalf("adapted tree: %d nodes at budget 16, %d materialized; want 6 leaves of 50 under the root", len(got), adapted.MaterializedNodes())
	}
	if adapted.base != base || !slices.Equal(base.values, values) || !slices.Equal(base.subjects, subjects) || !slices.Equal(base.prefix, prefix) {
		t.Fatal("Adapt touched the shared base")
	}
	sameNodes(t, "the other tree after Adapt", witness.LevelFor(16), before)
}

// scanHookSource runs a hook once, right after the next ScanIDs has returned:
// while a collection is under way, with no store lock held.
type scanHookSource struct {
	*store.Store
	hook atomic.Pointer[func()]
}

func (s *scanHookSource) ScanIDs(sub, p, o store.ID, lead store.Position) (store.IDRun, bool) {
	run, ok := s.Store.ScanIDs(sub, p, o, lead)
	if h := s.hook.Swap(nil); h != nil {
		(*h)()
	}
	return run, ok
}

// TestBasesWriteDuringCollection: a write to the property that lands after
// the scan has been taken is not in the base being collected. The base is
// filed under the generation read before the scan, so the next request finds
// the write in the span it checks and collects again; filed under one read
// after the collection, the base would pass for current.
func TestBasesWriteDuringCollection(t *testing.T) {
	st := valueStore(t, 50)
	src := &scanHookSource{Store: st}
	b := NewBases(src, st)
	write := func() {
		if err := st.Add(rdf.Triple{S: gen.Res("late", 0), P: gen.Prop("num"), O: rdf.NewDouble(1e6)}); err != nil {
			t.Error(err)
		}
	}
	src.hook.Store(&write)
	if tr := mustTree(t, b, gen.Prop("num"), Options{}); tr.Len() != 50 {
		t.Fatalf("the collection the write interrupted holds %d values, want the 50 of its scan", tr.Len())
	}
	if tr := mustTree(t, b, gen.Prop("num"), Options{}); tr.Len() != 51 || tr.Root().Max != 1e6 {
		t.Fatalf("the request after a mid-collection write sees %d values up to %g, want 51 up to 1e+06", tr.Len(), tr.Root().Max)
	}
	if s := b.Stats(); s.Built != 2 || s.Reused != 0 {
		t.Fatalf("built %d, reused %d; want 2, 0", s.Built, s.Reused)
	}
}

// TestBasesConcurrentReadersAndWriter cuts one property at many shapes from
// several goroutines while a writer alternates between that property and
// another; run under -race. Every tree must be a consistent cut of some
// state the property went through.
func TestBasesConcurrentReadersAndWriter(t *testing.T) {
	const n, writes = 400, 60
	st := valueStore(t, n)
	b := NewBases(st, st)
	num := gen.Prop("num")
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				tree, err := b.Tree(context.Background(), num, Options{Degree: 2 + r, LeafCapacity: 4 + i%9, Incremental: true})
				if err != nil {
					t.Error(err)
					return
				}
				total := 0
				for _, node := range tree.LevelFor(8 + 8*r) {
					total += node.Count
				}
				if total != tree.Len() || tree.Len() < n || tree.Len() > n+writes/2 {
					t.Errorf("reader %d: a cut of %d values sums to %d (the property held %d to %d)", r, tree.Len(), total, n, n+writes/2)
					return
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		p, o := num, rdf.Term(rdf.NewDouble(float64(-i)))
		if i%2 == 1 {
			p, o = gen.Prop("note"), rdf.NewLiteral("x")
		}
		if err := st.Add(rdf.Triple{S: gen.Res("late", i), P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()
	if tr := mustTree(t, b, num, Options{}); tr.Len() != n+writes/2 {
		t.Fatalf("after the writer: %d values, want %d", tr.Len(), n+writes/2)
	}
}

var sinkNodes []*Node

// BenchmarkFromSource times the store→tree path from scratch: scan the
// property, parse its objects, sort, sum, and cut one level.
func BenchmarkFromSource(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			st := valueStore(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree, err := FromSource(context.Background(), st, gen.Prop("num"), Options{Degree: 4, LeafCapacity: 64, Incremental: true})
				if err != nil {
					b.Fatal(err)
				}
				sinkNodes = tree.LevelFor(64)
			}
		})
	}
}

// BenchmarkLevelOverSharedBase times what a request costs once the base is
// kept: a fresh cursor and the nodes of one cut, at a budget that varies.
func BenchmarkLevelOverSharedBase(b *testing.B) {
	st := valueStore(b, 100_000)
	bases := NewBases(st, st)
	opts := Options{Degree: 4, LeafCapacity: 64, Incremental: true}
	if _, err := bases.Tree(context.Background(), gen.Prop("num"), opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := bases.Tree(context.Background(), gen.Prop("num"), opts)
		if err != nil {
			b.Fatal(err)
		}
		sinkNodes = tree.LevelFor(16 + i%48)
	}
	if s := bases.Stats(); s.Built != 1 {
		b.Fatalf("the base was collected %d times, want once", s.Built)
	}
}
