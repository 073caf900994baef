package facet

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// followed opens a session over b and checks it against one opened by
// NewSessionCtx, which collects the base from the store as it is now: the
// same base and base kind, the same count and facets. It also checks how
// often b has collected its base and how often it has reused it.
func followed(t *testing.T, step string, b *TypedBase, st *store.Store, built, reused uint64) *Session {
	t.Helper()
	ctx := context.Background()
	got, err := b.Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSessionCtx(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.base, want.base) || got.typeID != want.typeID {
		t.Fatalf("%s: kept base holds %d subjects (type %v), a fresh one %d (type %v)", step, len(got.base), got.typeID, len(want.base), want.typeID)
	}
	gotN, gotFacets, err := got.CountAndFacetsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantFacets, err := want.CountAndFacetsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN || !reflect.DeepEqual(gotFacets, wantFacets) {
		t.Fatalf("%s: over the kept base %d entities, %+v; over a fresh one %d, %+v", step, gotN, gotFacets, wantN, wantFacets)
	}
	if s := b.Stats(); s.Built != built || s.Reused != reused {
		t.Fatalf("%s: built %d, reused %d; want %d, %d", step, s.Built, s.Reused, built, reused)
	}
	return got
}

// write applies one add or delete and reports whether it changed the store.
func write(t *testing.T, st *store.Store, del bool, tr rdf.Triple) bool {
	t.Helper()
	apply := st.AddBatch
	if del {
		apply = st.DeleteBatch
	}
	n, err := apply([]rdf.Triple{tr})
	if err != nil {
		t.Fatal(err)
	}
	return n > 0
}

// TestTypedBaseFollowsWrites plays seeded write steps against a kept base
// and checks it after every one: writes under other predicates (adds and
// deletes, to typed and untyped subjects) carry it, and adding or deleting
// an rdf:type statement collects it again. A session opened early keeps
// the base it was handed.
func TestTypedBaseFollowsWrites(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			st := entityStore(t)
			b := NewTypedBase(st, st)
			rng := rand.New(rand.NewSource(seed))
			built, reused := uint64(1), uint64(0)
			first := followed(t, "first session", b, st, built, reused)
			held := slices.Clone(first.base)

			var notes []rdf.Triple
			for i := 0; i < 40; i++ {
				var tr rdf.Triple
				del := false
				switch rng.Intn(4) {
				case 0: // another predicate, on a typed or an untyped subject
					tr = rdf.T(gen.Res("entity", rng.Intn(150)), gen.Prop("note"), rdf.NewLiteral(fmt.Sprint("n", rng.Intn(8))))
					notes = append(notes, tr)
				case 1:
					if len(notes) == 0 {
						continue
					}
					j := rng.Intn(len(notes))
					tr, del = notes[j], true
					notes = slices.Delete(notes, j, j+1)
				case 2: // a type, for a typed subject, an untyped one or a new one
					tr = rdf.T(gen.Res("entity", rng.Intn(150)), rdf.RDFType, gen.Res("class", rng.Intn(4)))
				case 3:
					types := st.Match(store.Pattern{P: rdf.RDFType})
					tr, del = types[rng.Intn(len(types))], true
				}
				// A write that changed nothing (a repeated add or delete) leaves
				// the generation alone: the kept base stands as it is.
				if write(t, st, del, tr) && tr.P == rdf.RDFType {
					built++
				} else {
					reused++
				}
				followed(t, fmt.Sprintf("step %d (delete %v): %v", i, del, tr), b, st, built, reused)
			}
			if !slices.Equal(first.base, held) {
				t.Fatal("the base handed to the first session changed under it")
			}
		})
	}
}

// TestTypedBaseLogOverrun: one batch larger than the change log retains,
// none of it under rdf:type, leaves nothing to vouch for the span, so the
// base is collected again — and then kept.
func TestTypedBaseLogOverrun(t *testing.T) {
	st := entityStore(t)
	b := NewTypedBase(st, st)
	followed(t, "first session", b, st, 1, 0)
	bulk := make([]rdf.Triple, 70_000)
	for i := range bulk {
		bulk[i] = rdf.T(gen.Res("bulk", i), gen.Prop("note"), rdf.NewLiteral("b"))
	}
	if _, err := st.AddBatch(bulk); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.DigestsSince(st.Generation() - 1); ok {
		t.Fatal("the change log still covers the bulk batch")
	}
	followed(t, "after the overrun", b, st, 2, 0)
	followed(t, "after that", b, st, 2, 1)
}

// TestTypedBaseLateRDFType: a holder made over a store with no rdf:type has
// nothing to keep and collects all subjects per session, like NewSessionCtx;
// once a statement interns rdf:type the typed base is collected and kept,
// and once the last typed subject loses its type it is all subjects again.
func TestTypedBaseLateRDFType(t *testing.T) {
	st := store.New()
	for i := 0; i < 5; i++ {
		write(t, st, false, rdf.T(gen.Res("entity", i), gen.Prop("cat0"), rdf.NewLiteral("c")))
	}
	b := NewTypedBase(st, st)
	if s := followed(t, "untyped", b, st, 1, 0); s.typeID != 0 || len(s.base) != 5 {
		t.Fatalf("untyped store: base of %d subjects, type %v; want all 5, no type", len(s.base), s.typeID)
	}
	followed(t, "untyped again", b, st, 2, 0)

	typed := rdf.T(gen.Res("entity", 2), rdf.RDFType, gen.Res("class", 0))
	write(t, st, false, typed)
	if s := followed(t, "rdf:type interned", b, st, 3, 0); s.typeID == 0 || len(s.base) != 1 {
		t.Fatalf("after typing one subject: base of %d subjects, type %v; want that one, typed", len(s.base), s.typeID)
	}
	write(t, st, false, rdf.T(gen.Res("entity", 0), gen.Prop("cat0"), rdf.NewLiteral("d")))
	followed(t, "untyped write", b, st, 3, 1)

	write(t, st, true, typed)
	if s := followed(t, "type deleted", b, st, 4, 1); s.typeID != 0 || len(s.base) != 5 {
		t.Fatalf("after the last type went: base of %d subjects, type %v; want all 5, no type", len(s.base), s.typeID)
	}
	followed(t, "still untyped", b, st, 5, 1)
}

// TestTypedBaseConcurrentSessions opens filtered sessions over one kept base
// from several goroutines while a writer adds untyped statements (carried)
// and, now and then, a typed subject (collected again); run under -race.
// Every session must count a typed set the store went through.
func TestTypedBaseConcurrentSessions(t *testing.T) {
	const writes, typedEvery = 60, 10
	st := entityStore(t)
	b := NewTypedBase(st, st)
	ctx := context.Background()
	n, err := newSession(t, st).CountCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	filter := Filter{Predicate: gen.Prop("cat1"), Value: rdf.NewLiteral("category-2")}

	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	var opened atomic.Uint64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				sess, err := b.Session(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				opened.Add(1)
				count, _, err := sess.CountAndFacetsCtx(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if count < last || count < n || count > n+writes/typedEvery {
					t.Errorf("reader %d: %d typed entities after %d (the store held %d to %d)", r, count, last, n, n+writes/typedEvery)
					return
				}
				last = count
				sess.Apply(filter)
				if _, err := sess.FacetsCtx(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		tr := rdf.T(gen.Res("entity", i%120), gen.Prop("note"), rdf.NewLiteral(fmt.Sprint(i)))
		if i%typedEvery == 0 {
			tr = rdf.T(gen.Res("late", i), rdf.RDFType, gen.Res("class", 0))
		}
		// Each write waits for a session opened after the one before it.
		for seen := opened.Load(); opened.Load() == seen && !t.Failed(); {
			runtime.Gosched()
		}
		write(t, st, false, tr)
	}
	close(done)
	wg.Wait()

	// A typed write can be collected again by each reader that read the
	// generation before it and checked the log after it; untyped writes
	// never are.
	s := b.Stats()
	if s.Built+s.Reused != opened.Load() || s.Built > 1+readers*writes/typedEvery {
		t.Fatalf("%d sessions: built %d, reused %d; want every session counted, at most %d builds per typed write", opened.Load(), s.Built, s.Reused, readers)
	}
	if last := followed(t, "after the writer", b, st, s.Built, s.Reused+1); len(last.base) != n+writes/typedEvery {
		t.Fatalf("after the writer: %d typed entities, want %d", len(last.base), n+writes/typedEvery)
	}
}
