package facet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// entityStore builds a typed entity dataset with categorical facets, then
// layers delta adds on top so the ID-space paths cross the base/delta
// boundary.
func entityStore(t testing.TB) *store.Store {
	t.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 120, Classes: 3, CategoryProps: 3, Categories: 5, LinkProps: 1, Seed: 21,
	})
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := st.Add(rdf.Triple{
			S: gen.Res("entity", i),
			P: gen.Prop("cat0"),
			O: rdf.NewLiteral("category-extra"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestFacetsMatchReference is the differential test for the ID-space refactor:
// the Session's facet distribution must be identical to the preserved
// term-space reference algorithm, with and without filters, across both
// aggregation strategies (probe for small match sets, merged walk for large).
func TestFacetsMatchReference(t *testing.T) {
	st := entityStore(t)
	ctx := context.Background()

	cases := []struct {
		name    string
		filters []Filter
		max     int
	}{
		{"unfiltered", nil, 0},
		{"one-filter", []Filter{{Predicate: gen.Prop("cat1"), Value: rdf.NewLiteral("category-2")}}, 0},
		{"two-filters", []Filter{
			{Predicate: gen.Prop("cat1"), Value: rdf.NewLiteral("category-2")},
			{Predicate: gen.Prop("cat2"), Value: rdf.NewLiteral("category-0")},
		}, 0},
		{"absent-value", []Filter{{Predicate: gen.Prop("cat1"), Value: rdf.NewLiteral("no-such-category")}}, 0},
		{"capped", []Filter{{Predicate: gen.Prop("cat0"), Value: rdf.NewLiteral("category-1")}}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess := NewSession(st)
			sess.MaxValuesPerFacet = tc.max
			for _, f := range tc.filters {
				sess.Apply(f)
			}
			got, err := sess.FacetsCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want := ReferenceFacets(st, NewSession(st).BaseEntities(), tc.filters, tc.max)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ID-space facets diverge from reference:\n got %+v\nwant %+v", got, want)
			}
			n, err := sess.CountCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantMatches := 0
			for _, e := range NewSession(st).BaseEntities() {
				ok := true
				for _, f := range tc.filters {
					if !st.Contains(rdf.Triple{S: e, P: f.Predicate, O: f.Value}) {
						ok = false
						break
					}
				}
				if ok {
					wantMatches++
				}
			}
			if n != wantMatches {
				t.Fatalf("CountCtx = %d, reference matches = %d", n, wantMatches)
			}
		})
	}
}

// TestFacetsTopKAtCapBoundaries pins the bounded selection of a facet's
// values against the sort-everything reference where an off-by-one would
// show: a cap of 1, a cap equal to and beyond the number of values, and a
// facet whose values all tie on count (one distinct integer per entity, so
// the order is rdf.Compare's numeric one, not the lexical one).
func TestFacetsTopKAtCapBoundaries(t *testing.T) {
	st := entityStore(t)
	const n = 120
	for i := 0; i < n; i++ {
		if err := st.Add(rdf.Triple{S: gen.Res("entity", i), P: gen.Prop("serial"), O: rdf.NewInteger(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	base := NewSession(st).BaseEntities()
	for _, max := range []int{1, 2, 25, n - 1, n, n + 1, 0} {
		sess := NewSession(st)
		sess.MaxValuesPerFacet = max
		got, err := sess.FacetsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := ReferenceFacets(st, base, nil, max); !reflect.DeepEqual(got, want) {
			t.Fatalf("cap %d: facets diverge from reference:\n got %+v\nwant %+v", max, got, want)
		}
		for _, f := range got {
			if f.Predicate != gen.Prop("serial") {
				continue
			}
			if want := min(max, n); max > 0 && len(f.Values) != want {
				t.Errorf("cap %d: tied facet lists %d values, want %d", max, len(f.Values), want)
			}
			if first := f.Values[0].Term; first != rdf.NewInteger(0) {
				t.Errorf("cap %d: tied facet starts at %v, want the numerically smallest", max, first)
			}
		}
	}
}

// TestFacetsProbePathMatchesReference pins the small-match-set strategy: a
// handful of explicit entities is far below probeThreshold relative to the
// dataset, so this exercises aggregateProbe (the walk cases above exercise
// aggregateWalk).
func TestFacetsProbePathMatchesReference(t *testing.T) {
	st := entityStore(t)
	entities := []rdf.Term{gen.Res("entity", 1), gen.Res("entity", 2), gen.Res("entity", 3)}
	sess := NewSessionOver(st, entities)
	got, err := sess.FacetsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := ReferenceFacets(st, entities, nil, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("probe-path facets diverge from reference:\n got %+v\nwant %+v", got, want)
	}
}

// probeSide reports which side of the probe-or-walk rule sess's selection is
// on, so a test that needs one side fails loudly when its data moves it.
func probeSide(t *testing.T, sess *Session) bool {
	t.Helper()
	matches, err := sess.matchIDs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return probes(len(matches), sess.src.EstimateCountIDs(0, 0, 0))
}

// tombstonedStore is entityStore with one base triple deleted: its ScanIDs
// runs are copied past the tombstone rather than lent from the index.
func tombstonedStore(t testing.TB) *store.Store {
	t.Helper()
	st := entityStore(t)
	victim := st.Match(store.Pattern{S: gen.Res("entity", 7), P: gen.Prop("cat2")})
	if len(victim) != 1 || !st.Delete(victim[0]) {
		t.Fatalf("entity 7 has cat2 triples %v; want one to delete", victim)
	}
	return st
}

// TestStreamFinalMatchesFacets checks the progressive path's convergence
// contract: the final (count, facets) pair returned by Stream must equal what
// FacetsCtx and the term-space reference compute, while at least one
// approximate batch was emitted mid-scan with the exact count and a fraction
// below 1. Both selections are on the walk side of the probe rule, and both
// are streamed over a store whose run is lent and over one whose run is
// copied past a tombstone.
func TestStreamFinalMatchesFacets(t *testing.T) {
	ctx := context.Background()
	for _, st := range []*store.Store{entityStore(t), tombstonedStore(t)} {
		for _, filters := range [][]Filter{
			nil,
			{{Predicate: gen.Prop("cat1"), Value: rdf.NewLiteral("category-2")}},
		} {
			sess := NewSession(st)
			for _, f := range filters {
				sess.Apply(f)
			}
			if probeSide(t, sess) {
				t.Fatalf("filters %v: selection is on the probe side; this test needs the walk", filters)
			}
			wantFacets, err := sess.FacetsCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantCount, err := sess.CountCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}

			var batches []Batch
			count, fs, err := sess.Stream(ctx, 32, 1, func(b Batch) bool {
				batches = append(batches, b)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if count != wantCount {
				t.Fatalf("Stream count = %d, want %d", count, wantCount)
			}
			if !reflect.DeepEqual(fs, wantFacets) {
				t.Fatalf("Stream final facets diverge from FacetsCtx:\n got %+v\nwant %+v", fs, wantFacets)
			}
			if want := ReferenceFacets(st, NewSession(st).BaseEntities(), filters, 0); !reflect.DeepEqual(fs, want) {
				t.Fatalf("Stream final facets diverge from the reference:\n got %+v\nwant %+v", fs, want)
			}
			if len(batches) < 2 {
				t.Fatalf("got %d approximate batches, want >= 2", len(batches))
			}
			for i, b := range batches {
				if b.Count != wantCount {
					t.Fatalf("batch %d: count %d, want exact %d from the first batch on", i, b.Count, wantCount)
				}
				if b.Scanned != 32*(i+1) {
					t.Fatalf("batch %d: scanned %d, want %d pages of 32", i, b.Scanned, i+1)
				}
				if b.Fraction <= 0 || b.Fraction > 1 {
					t.Fatalf("batch %d: fraction %v", i, b.Fraction)
				}
				for _, fe := range b.Facets {
					if fe.Total.Value < 0 || fe.Total.CI95 < 0 {
						t.Fatalf("batch %d: bad estimate %+v", i, fe.Total)
					}
				}
			}
		}
	}
}

// TestStreamIgnoresWritesFromEmit: the walk's run is taken before the first
// statement, so an AddBatch and a Compact made from emit between batches —
// a new typed entity, a new value on a matched one, a rebuilt index — leave
// the final answer at what FacetsCtx and the reference computed before the
// stream, on a lent run and on a copied one.
func TestStreamIgnoresWritesFromEmit(t *testing.T) {
	ctx := context.Background()
	for _, st := range []*store.Store{entityStore(t), tombstonedStore(t)} {
		sess := NewSession(st)
		if probeSide(t, sess) {
			t.Fatal("the unfiltered selection is on the probe side; this test needs the walk")
		}
		wantCount, err := sess.CountCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantFacets, err := sess.FacetsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		reference := ReferenceFacets(st, sess.BaseEntities(), nil, 0)
		before := st.Len()
		batches := 0
		count, fs, err := sess.Stream(ctx, 32, 1, func(Batch) bool {
			batches++
			add := []rdf.Triple{
				rdf.T(gen.Res("written", batches), rdf.RDFType, gen.Res("class", 0)),
				rdf.T(gen.Res("entity", batches), gen.Prop("cat0"), rdf.NewLiteral(fmt.Sprintf("written-%d", batches))),
			}
			if n, err := st.AddBatch(add); err != nil || n != len(add) {
				t.Errorf("AddBatch from emit: added %d, err %v", n, err)
			}
			st.Compact()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if batches < 2 || st.Len() != before+2*batches {
			t.Fatalf("%d batches, store grew %d -> %d; want writes between at least two batches", batches, before, st.Len())
		}
		if count != wantCount || !reflect.DeepEqual(fs, wantFacets) {
			t.Fatalf("Stream after writes from emit = (%d, %+v), want FacetsCtx's (%d, %+v) from before", count, fs, wantCount, wantFacets)
		}
		if !reflect.DeepEqual(fs, reference) {
			t.Fatalf("Stream after writes from emit diverges from the reference:\n got %+v\nwant %+v", fs, reference)
		}
	}
}

// TestStreamStopAndCancel: on the walk side, an emit returning false stops
// the stream with explore.ErrStopped; on either side a cancelled context
// returns context.Canceled.
func TestStreamStopAndCancel(t *testing.T) {
	st := entityStore(t)
	sess := NewSession(st)
	if probeSide(t, sess) {
		t.Fatal("the unfiltered selection is on the probe side; this test needs the walk")
	}
	if _, _, err := sess.Stream(context.Background(), 16, 1, func(Batch) bool { return false }); !errors.Is(err, explore.ErrStopped) {
		t.Fatalf("err = %v, want explore.ErrStopped", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.Stream(ctx, 16, 1, func(Batch) bool { return true }); err != context.Canceled {
		t.Fatalf("walk side: err = %v, want context.Canceled", err)
	}
	// A store smaller than one default page reaches no page boundary: the
	// walk must check before its first statement.
	if _, _, err := sess.Stream(ctx, 0, 1, func(Batch) bool { return true }); err != context.Canceled {
		t.Fatalf("walk side, one page: err = %v, want context.Canceled", err)
	}
	if _, err := sess.FacetsCtx(ctx); err != context.Canceled {
		t.Fatalf("FacetsCtx: err = %v, want context.Canceled", err)
	}
	// No filter: matchIDs checks nothing, so the probe loop must notice.
	probed := NewSessionOver(st, []rdf.Term{gen.Res("entity", 1), gen.Res("entity", 2)})
	if !probeSide(t, probed) {
		t.Fatal("two explicit entities are on the walk side; this test needs the probe")
	}
	if _, _, err := probed.Stream(ctx, 16, 1, func(Batch) bool { return true }); err != context.Canceled {
		t.Fatalf("probe side: err = %v, want context.Canceled", err)
	}
}

// TestStreamProbeSideIsExact: a selection under the probe threshold — two
// categorical filters, as a drilled-down session sends — streams no batch
// and returns what CountCtx, FacetsCtx and the term-space reference return.
func TestStreamProbeSideIsExact(t *testing.T) {
	st := entityStore(t)
	ctx := context.Background()
	filters := []Filter{
		{Predicate: gen.Prop("cat1"), Value: rdf.NewLiteral("category-2")},
		{Predicate: gen.Prop("cat2"), Value: rdf.NewLiteral("category-0")},
	}
	sess := NewSession(st)
	sess.MaxValuesPerFacet = 3
	for _, f := range filters {
		sess.Apply(f)
	}
	if !probeSide(t, sess) {
		t.Fatal("two filters are on the walk side; this test needs the probe")
	}
	batches := 0
	count, fs, err := sess.Stream(ctx, 16, 1, func(Batch) bool { batches++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if batches != 0 {
		t.Fatalf("probe side emitted %d batches, want 0", batches)
	}
	wantCount, err := sess.CountCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantFacets, err := sess.FacetsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if count != wantCount || count == 0 {
		t.Fatalf("Stream count = %d, CountCtx = %d (want equal and non-zero)", count, wantCount)
	}
	if !reflect.DeepEqual(fs, wantFacets) {
		t.Fatalf("Stream facets diverge from FacetsCtx:\n got %+v\nwant %+v", fs, wantFacets)
	}
	if want := ReferenceFacets(st, NewSession(st).BaseEntities(), filters, 3); !reflect.DeepEqual(fs, want) {
		t.Fatalf("Stream facets diverge from the reference:\n got %+v\nwant %+v", fs, want)
	}
}

// TestStreamProbeWalkBoundary pins the rule's edge on a store of exactly
// 256 statements: 7 entities (7·32 < 256) are probed with no batch, 8
// (8·32 == 256) already walk with batches; both answer like FacetsCtx and
// the reference.
func TestStreamProbeWalkBoundary(t *testing.T) {
	const entities = 64
	var triples []rdf.Triple
	for i := 0; i < entities; i++ {
		e := gen.Res("entity", i)
		triples = append(triples,
			rdf.T(e, rdf.RDFType, gen.Res("class", i%2)),
			rdf.T(e, gen.Prop("cat0"), rdf.NewLiteral(fmt.Sprintf("category-%d", i%3))),
			rdf.T(e, gen.Prop("cat1"), rdf.NewLiteral(fmt.Sprintf("category-%d", i%5))),
			rdf.T(e, gen.Prop("rel0"), gen.Res("entity", (i+1)%entities)),
		)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	population := st.EstimateCountIDs(0, 0, 0)
	if population != 4*entities || population%probeThreshold != 0 {
		t.Fatalf("population = %d, want %d, a multiple of %d", population, 4*entities, probeThreshold)
	}
	ctx := context.Background()
	for _, n := range []int{population/probeThreshold - 1, population / probeThreshold} {
		var selected []rdf.Term
		for i := 0; i < n; i++ {
			selected = append(selected, gen.Res("entity", i))
		}
		sess := NewSessionOver(st, selected)
		batches := 0
		count, fs, err := sess.Stream(ctx, 16, 1, func(Batch) bool { batches++; return true })
		if err != nil {
			t.Fatal(err)
		}
		if walk := n*probeThreshold == population; walk != (batches > 0) {
			t.Fatalf("%d entities of %d statements: %d batches, want a walk: %v", n, population, batches, walk)
		}
		wantFacets, err := sess.FacetsCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if count != n || !reflect.DeepEqual(fs, wantFacets) {
			t.Fatalf("%d entities: Stream = (%d, %+v), want (%d, %+v)", n, count, fs, n, wantFacets)
		}
		if want := ReferenceFacets(st, selected, nil, 0); !reflect.DeepEqual(fs, want) {
			t.Fatalf("%d entities: Stream facets diverge from the reference:\n got %+v\nwant %+v", n, fs, want)
		}
	}
}

// TestMaxValuesDeterministic pins tie-breaking under a value cap: repeated
// computations over a store whose counts tie heavily must produce identical
// capped value lists (count descending, term order on ties).
func TestMaxValuesDeterministic(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 30; i++ {
		e := rdf.IRI(fmt.Sprintf("http://x/e%d", i))
		triples = append(triples,
			rdf.Triple{S: e, P: rdf.RDFType, O: rdf.IRI("http://x/Thing")},
			// Every value appears exactly 3 times: all ties.
			rdf.Triple{S: e, P: "http://x/bucket", O: rdf.NewLiteral(fmt.Sprintf("b%02d", i%10))},
		)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	build := func() []Facet {
		sess := NewSession(st)
		sess.MaxValuesPerFacet = 4
		fs, err := sess.FacetsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	first := build()
	for i := 0; i < 5; i++ {
		if got := build(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: capped facet values changed across identical computations", i)
		}
	}
	if want := ReferenceFacets(st, NewSession(st).BaseEntities(), nil, 4); !reflect.DeepEqual(first, want) {
		t.Fatalf("capped ID-space facets diverge from reference:\n got %+v\nwant %+v", first, want)
	}
}
