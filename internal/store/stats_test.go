package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

func TestCardinalities(t *testing.T) {
	st := New()
	// p1: 3 triples, 2 distinct subjects, 3 distinct objects.
	for _, tp := range []rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s1", "p1", "o2"),
		tr("s2", "p1", "o3"),
		// p2: 2 triples, 2 distinct subjects, 1 distinct object.
		tr("s1", "p2", "x"),
		tr("s2", "p2", "x"),
	} {
		if err := st.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	cards := st.Cardinalities()
	if len(cards) != 2 {
		t.Fatalf("Cardinalities has %d predicates, want 2", len(cards))
	}
	want := map[rdf.IRI]PredCardinality{
		iri("p1"): {Triples: 3, DistinctSubjects: 2, DistinctObjects: 3},
		iri("p2"): {Triples: 2, DistinctSubjects: 2, DistinctObjects: 1},
	}
	for p, w := range want {
		if got := cards[p]; got != w {
			t.Errorf("Cardinalities[%s] = %+v, want %+v", p, got, w)
		}
	}
	if c, ok := st.PredicateCardinality(iri("p1")); !ok || c != want[iri("p1")] {
		t.Errorf("PredicateCardinality(p1) = %+v, %v", c, ok)
	}
	if _, ok := st.PredicateCardinality(iri("nosuch")); ok {
		t.Error("PredicateCardinality(nosuch) reported ok")
	}
}

func TestCardinalitiesInvalidatedByWrites(t *testing.T) {
	st := New()
	if err := st.Add(tr("s1", "p1", "o1")); err != nil {
		t.Fatal(err)
	}
	if got := st.Cardinalities()[iri("p1")].Triples; got != 1 {
		t.Fatalf("initial Triples = %d, want 1", got)
	}
	// An insert must invalidate the cached table.
	if err := st.Add(tr("s2", "p1", "o2")); err != nil {
		t.Fatal(err)
	}
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{2, 2, 2}) {
		t.Errorf("after Add = %+v, want {2 2 2}", got)
	}
	// So must a delete.
	if !st.Delete(tr("s1", "p1", "o1")) {
		t.Fatal("Delete failed")
	}
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{1, 1, 1}) {
		t.Errorf("after Delete = %+v, want {1 1 1}", got)
	}
	// Compaction must not change the live counts.
	st.Compact()
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{1, 1, 1}) {
		t.Errorf("after Compact = %+v, want {1 1 1}", got)
	}
}

func TestCardinalitiesSpanBaseAndDelta(t *testing.T) {
	// Load merges into base; later Adds sit in the delta buffer. The table
	// must count both.
	st, err := Load([]rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s2", "p1", "o2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(tr("s3", "p1", "o3")); err != nil {
		t.Fatal(err)
	}
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{3, 3, 3}) {
		t.Errorf("Cardinalities = %+v, want {3 3 3}", got)
	}
}

func TestCardinalitiesConcurrentReaders(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 500; i++ {
		triples = append(triples, tr(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i%31)))
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the lazy cache from many goroutines; -race verifies safety.
	done := make(chan map[rdf.IRI]PredCardinality, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- st.Cardinalities() }()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		got := <-done
		if len(got) != len(first) {
			t.Errorf("reader saw %d predicates, want %d", len(got), len(first))
		}
	}
	if len(first) != 7 {
		t.Errorf("predicates = %d, want 7", len(first))
	}
}

func TestCardinalitiesWarmStartAfterDeleteSnapshotRestore(t *testing.T) {
	// A delete burst, then snapshot, then restore: the restored store's
	// cardinality table must match a fresh recount over the surviving
	// triples — tombstoned triples must not leak across the snapshot.
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		triples = append(triples,
			tr(fmt.Sprintf("s%d", i), "keep", fmt.Sprintf("o%d", i%13)),
			tr(fmt.Sprintf("s%d", i), "churn", fmt.Sprintf("v%d", i)),
		)
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	var victims []rdf.Triple
	for i := 0; i < 150; i++ {
		victims = append(victims, tr(fmt.Sprintf("s%d", i), "churn", fmt.Sprintf("v%d", i)))
	}
	if n, err := st.DeleteBatch(victims); err != nil || n != 150 {
		t.Fatalf("DeleteBatch = %d, %v; want 150", n, err)
	}

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(restored.Triples())
	if err != nil {
		t.Fatal(err)
	}
	warm, recount := restored.Cardinalities(), fresh.Cardinalities()
	if len(warm) != len(recount) {
		t.Fatalf("warm table has %d predicates, recount %d", len(warm), len(recount))
	}
	for p, w := range warm {
		if r := recount[p]; w != r {
			t.Errorf("warm Cardinalities[%s] = %+v, recount %+v", p, w, r)
		}
	}
	if got := warm[iri("churn")]; got != (PredCardinality{Triples: 50, DistinctSubjects: 50, DistinctObjects: 50}) {
		t.Errorf("churn after restore = %+v, want {50 50 50}", got)
	}
}

// recountStats is the from-scratch summary the store's tally is held to: one
// walk over the live triples in term space, with plain sets.
func recountStats(st *Store) Stats {
	type agg struct {
		triples, literals int
		subj, obj         map[rdf.Term]struct{}
	}
	per := map[rdf.IRI]*agg{}
	classes := map[rdf.Term]int{}
	total := 0
	st.ForEach(Pattern{}, func(tr rdf.Triple) bool {
		total++
		a := per[tr.P]
		if a == nil {
			a = &agg{subj: map[rdf.Term]struct{}{}, obj: map[rdf.Term]struct{}{}}
			per[tr.P] = a
		}
		a.triples++
		if tr.O.Kind() == rdf.KindLiteral {
			a.literals++
		}
		a.subj[tr.S] = struct{}{}
		a.obj[tr.O] = struct{}{}
		if tr.P == rdf.RDFType {
			classes[tr.O]++
		}
		return true
	})
	want := Stats{Triples: total, Terms: st.NumTerms(), Classes: classes}
	for p, a := range per {
		want.Predicates = append(want.Predicates, PredicateStat{
			Predicate:        p,
			Triples:          a.triples,
			DistinctSubjects: len(a.subj),
			DistinctObjects:  len(a.obj),
			LiteralObjects:   a.literals,
		})
	}
	sort.Slice(want.Predicates, func(i, j int) bool {
		if want.Predicates[i].Triples != want.Predicates[j].Triples {
			return want.Predicates[i].Triples > want.Predicates[j].Triples
		}
		return want.Predicates[i].Predicate < want.Predicates[j].Predicate
	})
	return want
}

// recountCardinalities is Cardinalities as recountStats derives it.
func recountCardinalities(st *Store) map[rdf.IRI]PredCardinality {
	out := map[rdf.IRI]PredCardinality{}
	for _, p := range recountStats(st).Predicates {
		out[p.Predicate] = PredCardinality{p.Triples, p.DistinctSubjects, p.DistinctObjects}
	}
	return out
}

// checkTally holds ComputeStats and Cardinalities to a recount, and the
// store to one tally build.
func checkTally(t *testing.T, st *Store, step string) {
	t.Helper()
	if got, want := st.ComputeStats(), recountStats(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %s: ComputeStats\n got %+v\nwant %+v", step, got, want)
	}
	if got, want := st.Cardinalities(), recountCardinalities(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %s: Cardinalities\n got %+v\nwant %+v", step, got, want)
	}
	if n := st.Observe().TallyBuilds; n != 1 {
		t.Fatalf("after %s: tally built %d times, want 1", step, n)
	}
}

// statsTriple draws from a small vocabulary so a schedule hits repeats. An
// object is <http://e/oK>, the literal "http://e/oK" of the same lexical
// form, or that literal tagged @en: one predicate carries an IRI and a
// literal that print alike, and the literal count must tell them apart.
func statsTriple(rng *rand.Rand, preds []rdf.IRI) rdf.Triple {
	o := rdf.Term(iri(fmt.Sprintf("o%d", rng.Intn(12))))
	switch rng.Intn(3) {
	case 1:
		o = rdf.NewLiteral(string(o.(rdf.IRI)))
	case 2:
		o = rdf.NewLangLiteral(string(o.(rdf.IRI)), "en")
	}
	return rdf.T(iri(fmt.Sprintf("s%d", rng.Intn(24))), preds[rng.Intn(len(preds))], o)
}

// pickLive returns up to n live triples of st, drawn with repeats.
func pickLive(rng *rand.Rand, st *Store, n int) []rdf.Triple {
	live := st.Triples()
	var out []rdf.Triple
	for i := 0; i < n && len(live) > 0; i++ {
		out = append(out, live[rng.Intn(len(live))])
	}
	return out
}

// TestStatsTallyFollowsWrites is the differential of the maintained tally:
// a seeded schedule of inserts and deletes with duplicates, no-op batches,
// undeletes, compactions and snapshot round trips, checked against a
// recount after every step. rdf:type is interned only after the tally
// exists, a predicate is emptied and refilled, and (seed 1) one batch
// overruns the change log.
func TestStatsTallyFollowsWrites(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			preds := []rdf.IRI{iri("p0"), iri("p1"), iri("p2"), iri("p3")}
			var batch []rdf.Triple
			for i := 0; i < 40; i++ {
				batch = append(batch, statsTriple(rng, preds))
			}
			st, err := Load(batch)
			if err != nil {
				t.Fatal(err)
			}
			// Writes before anything asks build nothing.
			if _, err := st.AddBatch([]rdf.Triple{statsTriple(rng, preds)}); err != nil {
				t.Fatal(err)
			}
			if n := st.Observe().TallyBuilds; n != 0 {
				t.Fatalf("writes built the tally %d times before any read", n)
			}
			checkTally(t, st, "first read")
			preds = append(preds, rdf.RDFType)

			for i := 0; i < 60; i++ {
				var step string
				switch rng.Intn(8) {
				case 0, 1:
					step = "add with duplicates"
					b := []rdf.Triple{statsTriple(rng, preds)}
					for j := rng.Intn(10); j > 0; j-- {
						b = append(b, statsTriple(rng, preds))
					}
					b = append(append(b, b[0]), pickLive(rng, st, 3)...)
					if _, err := st.AddBatch(b); err != nil {
						t.Fatal(err)
					}
				case 2, 3:
					step = "delete with duplicates and absent triples"
					b := pickLive(rng, st, 1+rng.Intn(6))
					b = append(append(b, b...), statsTriple(rng, preds), tr("never", "p0", "o0"))
					if _, err := st.DeleteBatch(b); err != nil {
						t.Fatal(err)
					}
				case 4:
					step = "no-op batches"
					if n, _ := st.AddBatch(pickLive(rng, st, 4)); n != 0 {
						t.Fatalf("re-adding live triples changed %d", n)
					}
					if n, _ := st.DeleteBatch([]rdf.Triple{tr("never", "p0", "o0")}); n != 0 {
						t.Fatalf("deleting an absent triple changed %d", n)
					}
				case 5:
					step = "undelete"
					b := pickLive(rng, st, 5)
					st.Compact()
					if _, err := st.DeleteBatch(b); err != nil {
						t.Fatal(err)
					}
					checkTally(t, st, "delete before undelete")
					if _, err := st.AddBatch(b); err != nil {
						t.Fatal(err)
					}
				case 6:
					step = "compact"
					st.Compact()
				case 7:
					step = "snapshot round trip"
					var buf bytes.Buffer
					if err := st.WriteSnapshot(&buf); err != nil {
						t.Fatal(err)
					}
					if st, err = ReadSnapshot(&buf); err != nil {
						t.Fatal(err)
					}
				}
				checkTally(t, st, step)
			}

			if _, err := st.AddBatch([]rdf.Triple{tr("s0", "p0", "o0")}); err != nil {
				t.Fatal(err)
			}
			p0 := st.Match(Pattern{P: iri("p0")})
			if _, err := st.DeleteBatch(p0); err != nil {
				t.Fatal(err)
			}
			checkTally(t, st, "emptying p0")
			if _, ok := st.Cardinalities()[iri("p0")]; ok {
				t.Fatal("an emptied predicate is still listed")
			}
			if _, err := st.AddBatch(p0[:1]); err != nil {
				t.Fatal(err)
			}
			checkTally(t, st, "refilling p0")

			if seed != 1 {
				return
			}
			big := make([]rdf.Triple, changeLogBudget+1)
			for i := range big {
				big[i] = rdf.T(iri(fmt.Sprintf("b%d", i)), iri("big"), rdf.NewInteger(int64(i%1000)))
			}
			if _, err := st.AddBatch(big); err != nil {
				t.Fatal(err)
			}
			checkTally(t, st, "a batch over the change-log budget")
			if _, err := st.DeleteBatch(big); err != nil {
				t.Fatal(err)
			}
			checkTally(t, st, "deleting it")
		})
	}
}

// TestStatsTallyConcurrentReaders runs ComputeStats and Cardinalities readers
// beside a writer, from before the tally is built; -race checks the build
// and the maintenance, and the last read must equal a recount.
func TestStatsTallyConcurrentReaders(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 400; i++ {
		triples = append(triples, tr(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%5), fmt.Sprintf("o%d", i%17)))
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					if s := st.ComputeStats(); s.Triples < 0 {
						t.Error("negative triple count")
					}
				} else if len(st.Cardinalities()) == 0 {
					t.Error("no predicates")
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		b := []rdf.Triple{tr(fmt.Sprintf("w%d", i), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i%3))}
		if _, err := st.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := st.DeleteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 0 {
			st.Compact()
		}
	}
	close(stop)
	wg.Wait()
	checkTally(t, st, "concurrent reads")
}
