package hetree

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func numericStore(t *testing.T) *store.Store {
	t.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 80, Classes: 2, NumericProps: 1, TemporalProps: 1, CategoryProps: 1, Seed: 17,
	})
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	// Delta adds so the POS grouping crosses the base/delta boundary.
	for i := 0; i < 4; i++ {
		if err := st.Add(rdf.Triple{
			S: gen.Res("late", i),
			P: gen.Prop("num0"),
			O: rdf.NewDouble(float64(1000 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// valued is one statement of a property as the term-space oracle reads it.
type valued struct {
	value   float64
	subject rdf.Term
	sid     store.ID
}

// termSpaceValues reads prop the slow way: every statement through
// term-space Match, every object parsed on its own, non-finite values left
// out, in (value, subject ID) order.
func termSpaceValues(t *testing.T, st *store.Store, prop rdf.IRI) []valued {
	t.Helper()
	var out []valued
	for _, tr := range st.Match(store.Pattern{P: prop}) {
		l, ok := tr.O.(rdf.Literal)
		if !ok {
			continue
		}
		var v float64
		if f, ok := l.Float(); ok {
			v = f
		} else if tm, ok := l.Time(); ok {
			v = float64(tm.Unix())
		} else {
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		sid, ok := st.LookupTermID(tr.S)
		if !ok {
			t.Fatalf("subject %v of a matched statement is not in the dictionary", tr.S)
		}
		out = append(out, valued{v, tr.S, sid})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			return out[i].value < out[j].value
		}
		return out[i].sid < out[j].sid
	})
	return out
}

// sameNodes compares two cuts by what a client sees of them.
func sameNodes(t *testing.T, what string, got, want []*Node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Lo != w.Lo || g.Hi != w.Hi || g.Count != w.Count || g.Sum != w.Sum ||
			g.Min != w.Min || g.Max != w.Max || g.Depth != w.Depth || g.IsLeaf() != w.IsLeaf() {
			t.Fatalf("%s: node %d = %+v, want %+v", what, i, *g, *w)
		}
	}
}

// TestFromSourceMatchesTermSpaceValues is the differential for the ID-space
// build: over seeded random datasets — duplicate values, several subjects a
// value, one subject under two values, two spellings of one number, temporal,
// non-numeric, non-finite and IRI objects, statements in the delta buffer
// and tombstoned ones, before and after a compaction — every cut of a tree
// from the store must equal the cut of hetree.New over the items read
// through term space, and a leaf's Items must be exactly its slice of them.
func TestFromSourceMatchesTermSpaceValues(t *testing.T) {
	prop, other := gen.Prop("mixed"), gen.Prop("other")
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		object := func() rdf.Term {
			switch k := rng.Intn(20); {
			case k < 9: // few distinct values: ties across subjects
				return rdf.NewDouble(float64(rng.Intn(12)) * 2.5)
			case k < 11: // the same numbers spelled as integers
				return rdf.NewInteger(int64(rng.Intn(6)) * 5)
			case k < 13:
				return rdf.NewTypedLiteral(fmt.Sprintf("%d.50", rng.Intn(40)), rdf.XSDDecimal)
			case k < 15:
				return rdf.NewTypedLiteral(fmt.Sprintf("19%02d-03-01", 70+rng.Intn(3)), rdf.XSDDate)
			case k < 16:
				return rdf.NewTypedLiteral([]string{"NaN", "INF", "-INF"}[rng.Intn(3)], rdf.XSDDouble)
			case k < 17:
				return rdf.NewLiteral(fmt.Sprint("word", rng.Intn(5)))
			case k < 18:
				return gen.Res("thing", rng.Intn(5))
			default:
				return rdf.NewDouble(rng.NormFloat64() * 1e3)
			}
		}
		statement := func() rdf.Triple {
			p := prop
			if rng.Intn(5) == 0 {
				p = other
			}
			return rdf.Triple{S: gen.Res("s", rng.Intn(40)), P: p, O: object()}
		}
		var loaded, late []rdf.Triple
		for i := 0; i < 300; i++ {
			loaded = append(loaded, statement())
		}
		for i := 0; i < 60; i++ {
			late = append(late, statement())
		}
		st, err := store.Load(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.AddBatch(late); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ { // tombstones over the index and over the delta
			st.Delete(loaded[rng.Intn(len(loaded))])
			if i%4 == 0 {
				st.Delete(late[rng.Intn(len(late))])
			}
		}
		if o := st.Observe(); o.Delta == 0 || o.Tombstones == 0 {
			t.Fatalf("seed %d: delta %d, tombstones %d: the dataset exercises neither", seed, o.Delta, o.Tombstones)
		}

		var sequence []Item // Items(root) of the first build: the tie order to keep
		for _, phase := range []string{"delta", "compacted"} {
			if phase == "compacted" {
				st.Compact()
			}
			oracle := termSpaceValues(t, st, prop)
			items := make([]Item, len(oracle))
			for i, o := range oracle {
				items[i] = Item{Value: o.value, Ref: o.subject}
			}
			for _, mode := range []Mode{ContentBased, RangeBased} {
				what := fmt.Sprintf("seed %d, %s, %v", seed, phase, mode)
				opts := Options{Mode: mode, Degree: 3, LeafCapacity: 7, Incremental: true}
				got, err := FromSource(context.Background(), st, prop, opts)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				want, err := New(items, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Len() != len(oracle) || got.Height() != want.Height() {
					t.Fatalf("%s: %d values, height %d; want %d, height %d", what, got.Len(), got.Height(), len(oracle), want.Height())
				}
				for _, budget := range []int{1, 2, 5, 9, 30, 1000} {
					sameNodes(t, fmt.Sprintf("%s, LevelFor(%d)", what, budget), got.LevelFor(budget), want.LevelFor(budget))
				}
				for _, r := range [][2]float64{{-1e9, 1e9}, {0, 10}, {7.5, 7.5}, {12, 2e7}, {5e7, 1e8}} {
					for _, max := range []int{1, 6, 100} {
						sameNodes(t, fmt.Sprintf("%s, RangeQuery(%g, %g, %d)", what, r[0], r[1], max),
							got.RangeQuery(r[0], r[1], max), want.RangeQuery(r[0], r[1], max))
					}
				}
				// The deepest cut tiles the values left to right, so each
				// node's items are the next Count entries of the oracle.
				next := 0
				for _, n := range got.LevelFor(1000) {
					for _, it := range got.Items(n) {
						if o := oracle[next]; it.Value != o.value || it.Ref != o.subject {
							t.Fatalf("%s: item %d = (%v, %v), want (%v, %v)", what, next, it.Value, it.Ref, o.value, o.subject)
						}
						next++
					}
				}
				if next != len(oracle) {
					t.Fatalf("%s: the deepest cut holds %d items, want %d", what, next, len(oracle))
				}
				all := got.Items(got.Root())
				if sequence == nil {
					sequence = all
				} else if !reflect.DeepEqual(all, sequence) {
					t.Fatalf("%s: the item sequence differs from the first build's", what)
				}
			}
		}
	}
}

// TestFromSourceSkipsNonFiniteValues: "NaN"^^xsd:double and "INF" parse as
// floats but have no place on an axis; one of them used to poison the prefix
// sums of the whole property.
func TestFromSourceSkipsNonFiniteValues(t *testing.T) {
	prop, bad := gen.Prop("size"), gen.Prop("broken")
	var triples []rdf.Triple
	for i, v := range []float64{3, 1, 2} {
		triples = append(triples, rdf.Triple{S: gen.Res("e", i), P: prop, O: rdf.NewDouble(v)})
	}
	for i, lex := range []string{"NaN", "INF", "-INF"} {
		o := rdf.NewTypedLiteral(lex, rdf.XSDDouble)
		triples = append(triples,
			rdf.Triple{S: gen.Res("e", 3+i), P: prop, O: o},
			rdf.Triple{S: gen.Res("e", 3+i), P: bad, O: o})
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromSource(context.Background(), st, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := tree.Root(); r.Count != 3 || r.Sum != 6 || r.Min != 1 || r.Max != 3 {
		t.Fatalf("root over three finite values and three non-finite ones = %+v", *r)
	}
	if _, err := FromSource(context.Background(), st, bad, Options{}); err != ErrNoValues {
		t.Fatalf("property with non-finite values only: err = %v, want ErrNoValues", err)
	}
}

func TestFromSourceDeterministic(t *testing.T) {
	st := numericStore(t)
	build := func() []Item {
		tree, err := FromSource(context.Background(), st, gen.Prop("num0"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tree.Items(tree.Root())
	}
	first := build()
	for i := 0; i < 3; i++ {
		if got := build(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: item sequence changed across identical builds", i)
		}
	}
}

func TestFromSourceTemporalProperty(t *testing.T) {
	st := numericStore(t)
	tree, err := FromSource(context.Background(), st, gen.Prop("date0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 80 {
		t.Fatalf("temporal tree holds %d items, want 80", tree.Len())
	}
}

func TestFromSourceNoValues(t *testing.T) {
	st := numericStore(t)
	cases := []rdf.IRI{
		"http://nowhere/prop", // unknown predicate
		gen.Prop("cat0"),      // string literals only
		rdf.RDFType,           // IRI objects only
	}
	for _, p := range cases {
		if _, err := FromSource(context.Background(), st, p, Options{}); err != ErrNoValues {
			t.Fatalf("prop %s: err = %v, want ErrNoValues", p, err)
		}
	}
}

func TestFromSourceCancelled(t *testing.T) {
	st := numericStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The grouping loop checks ctx every 8192 visits; with only a few
	// hundred statements the scan may complete before noticing, so accept
	// either a clean tree or the context error — but never a different one.
	if _, err := FromSource(ctx, st, gen.Prop("num0"), Options{}); err != nil && err != context.Canceled {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
}
