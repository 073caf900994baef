package explore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// statsStore builds a small mixed dataset: typed entities with labels,
// categorical literals, and entity links. With tombstone set it also holds
// delta adds and one deleted triple, so its ScanIDs run lists a Dead entry
// and covers all three regions.
func statsStore(t testing.TB, entities int, tombstone bool) *store.Store {
	t.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: entities, Classes: 3, CategoryProps: 2, Categories: 4, LinkProps: 1, Seed: 7,
	})
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	if !tombstone {
		return st
	}
	for i := 0; i < 5; i++ {
		if err := st.Add(rdf.Triple{
			S: rdf.IRI(fmt.Sprintf("http://x/extra%d", i)),
			P: "http://x/p",
			O: rdf.NewInteger(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Delete(rdf.Triple{S: rdf.IRI("http://x/extra2"), P: "http://x/p", O: rdf.NewInteger(2)}) {
		t.Fatal("delete failed")
	}
	return st
}

func TestStreamStatsConvergesToExact(t *testing.T) {
	for _, tombstone := range []bool{false, true} {
		st := statsStore(t, 150, tombstone)
		var batches []StatsBatch
		final, err := StreamStats(context.Background(), st, 32, 1, func(b StatsBatch) bool {
			batches = append(batches, b)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want := st.ComputeStats()
		if !reflect.DeepEqual(final, want) {
			t.Fatalf("tombstone %v: streamed final diverges from ComputeStats:\n got %+v\nwant %+v", tombstone, final, want)
		}
		if len(batches) < 2 {
			t.Fatalf("tombstone %v: got %d approximate batches, want >= 2 (page size 32 over %d triples)", tombstone, len(batches), st.Len())
		}
		prev := 0
		for i, b := range batches {
			if b.Scanned != prev+32 {
				t.Fatalf("batch %d: Scanned %d, want one page of 32 past %d", i, b.Scanned, prev)
			}
			prev = b.Scanned
			if b.Fraction <= 0 || b.Fraction > 1 {
				t.Fatalf("batch %d: Fraction %v out of (0,1]", i, b.Fraction)
			}
			for _, p := range b.Predicates {
				if p.Triples.Value < 0 || p.Triples.CI95 < 0 {
					t.Fatalf("batch %d: negative estimate %+v", i, p.Triples)
				}
				if b.Fraction < 1 && p.Triples.Final {
					t.Fatalf("batch %d: estimate marked final at fraction %v", i, b.Fraction)
				}
			}
			for j := 1; j < len(b.Predicates); j++ {
				a, c := b.Predicates[j-1], b.Predicates[j]
				if a.Triples.Value < c.Triples.Value {
					t.Fatalf("batch %d: predicates not sorted by estimated count desc", i)
				}
			}
		}
	}
}

// TestStreamStatsIgnoresWritesFromEmit: the run is taken before the first
// statement, so an AddBatch and a Compact made from emit between batches —
// new terms, new triples, a new index — leave the final answer at
// ComputeStats as of the stream's start, on a clean store and a tombstoned
// one.
func TestStreamStatsIgnoresWritesFromEmit(t *testing.T) {
	for _, tombstone := range []bool{false, true} {
		st := statsStore(t, 120, tombstone)
		want := st.ComputeStats()
		batches := 0
		final, err := StreamStats(context.Background(), st, 32, 1, func(StatsBatch) bool {
			batches++
			add := []rdf.Triple{
				rdf.T(rdf.IRI(fmt.Sprintf("http://x/new%d", batches)), rdf.RDFType, rdf.IRI("http://x/NewClass")),
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
		if batches < 2 {
			t.Fatalf("tombstone %v: %d batches, want writes between at least two", tombstone, batches)
		}
		if !reflect.DeepEqual(final, want) {
			t.Fatalf("tombstone %v: final after writes from emit diverges from the pre-write ComputeStats:\n got %+v\nwant %+v", tombstone, final, want)
		}
		if now := st.ComputeStats(); now.Triples != want.Triples+2*batches {
			t.Fatalf("tombstone %v: store holds %d triples after the stream, want %d", tombstone, now.Triples, want.Triples+2*batches)
		}
	}
}

func TestStreamStatsStopped(t *testing.T) {
	st := statsStore(t, 80, false)
	_, err := StreamStats(context.Background(), st, 16, 1, func(StatsBatch) bool { return false })
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
}

func TestStreamStatsCancelled(t *testing.T) {
	st := statsStore(t, 80, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := StreamStats(ctx, st, 16, 1, func(StatsBatch) bool { return true })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Not even a store smaller than one page answers a cancelled context.
	if _, err := StreamStats(ctx, st, 0, 1, func(StatsBatch) bool { return true }); err != context.Canceled {
		t.Fatalf("one-page store: err = %v, want context.Canceled", err)
	}
}

func TestStreamStatsEmptyStore(t *testing.T) {
	st := store.New()
	emitted := 0
	final, err := StreamStats(context.Background(), st, 16, 1, func(StatsBatch) bool {
		emitted++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 0 {
		t.Fatalf("empty store emitted %d batches, want 0", emitted)
	}
	if want := st.ComputeStats(); !reflect.DeepEqual(final, want) {
		t.Fatalf("empty final = %+v, want %+v", final, want)
	}
}
