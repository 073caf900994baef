package store

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

func sortedTriples(st *Store) []string {
	var out []string
	for _, t := range st.Triples() {
		out = append(out, t.String())
	}
	sort.Strings(out)
	return out
}

func sameTriples(t *testing.T, a, b *Store) {
	t.Helper()
	as, bs := sortedTriples(a), sortedTriples(b)
	if len(as) != len(bs) {
		t.Fatalf("triple counts differ: %d != %d", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("triple %d differs: %s != %s", i, as[i], bs[i])
		}
	}
}

func TestAddBatchAtomicOnInvalid(t *testing.T) {
	st := New()
	if err := st.Add(tr("pre", "p", "o")); err != nil {
		t.Fatal(err)
	}
	gen, size, terms := st.Generation(), st.Len(), st.NumTerms()

	batch := []rdf.Triple{
		tr("a", "p", "o"),
		{S: rdf.NewLiteral("bad subject"), P: iri("p"), O: iri("o")}, // invalid
		tr("b", "p", "o"),
	}
	added, err := st.AddBatch(batch)
	if err == nil {
		t.Fatal("AddBatch accepted an invalid triple")
	}
	if added != 0 {
		t.Fatalf("added = %d on error, want 0", added)
	}
	if st.Generation() != gen || st.Len() != size || st.NumTerms() != terms {
		t.Fatalf("rejected batch mutated the store: gen %d->%d, len %d->%d, terms %d->%d",
			gen, st.Generation(), size, st.Len(), terms, st.NumTerms())
	}
	if st.Contains(tr("a", "p", "o")) || st.Contains(tr("b", "p", "o")) {
		t.Fatal("triples from a rejected batch are visible")
	}
}

func TestAddBatchGenerationOncePerEffectiveBatch(t *testing.T) {
	st := New()
	batch := []rdf.Triple{tr("a", "p", "1"), tr("b", "p", "2"), tr("c", "p", "3")}
	added, err := st.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 3 {
		t.Fatalf("added = %d, want 3", added)
	}
	if st.Generation() != 1 {
		t.Fatalf("generation = %d after one batch, want 1", st.Generation())
	}
	// Same batch again: zero effect, zero generation movement.
	added, err = st.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || st.Generation() != 1 {
		t.Fatalf("duplicate batch: added=%d gen=%d, want 0/1", added, st.Generation())
	}
	// Overlapping batch: only the new triple counts.
	added, err = st.AddBatch(append(batch, tr("d", "p", "4")))
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || st.Generation() != 2 {
		t.Fatalf("overlap batch: added=%d gen=%d, want 1/2", added, st.Generation())
	}
}

func TestAddBatchInBatchDuplicates(t *testing.T) {
	st := New()
	added, err := st.AddBatch([]rdf.Triple{tr("a", "p", "o"), tr("a", "p", "o"), tr("a", "p", "o")})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || st.Len() != 1 {
		t.Fatalf("added=%d len=%d, want 1/1", added, st.Len())
	}
}

func TestAddBatchEmptyAndNil(t *testing.T) {
	st := New()
	for _, batch := range [][]rdf.Triple{nil, {}} {
		added, err := st.AddBatch(batch)
		if err != nil || added != 0 {
			t.Fatalf("empty batch: added=%d err=%v", added, err)
		}
	}
	if st.Generation() != 0 {
		t.Fatalf("empty batches advanced generation to %d", st.Generation())
	}
}

func TestAddBatchUndelete(t *testing.T) {
	st := New()
	batch := []rdf.Triple{tr("a", "p", "1"), tr("b", "p", "2")}
	if _, err := st.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if !st.Delete(tr("a", "p", "1")) {
		t.Fatal("delete failed")
	}
	gen := st.Generation()
	added, err := st.AddBatch(batch) // one undelete + one duplicate
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1 (the undelete)", added)
	}
	if st.Generation() != gen+1 {
		t.Fatalf("generation moved %d, want 1", st.Generation()-gen)
	}
	if !st.Contains(tr("a", "p", "1")) || st.Len() != 2 {
		t.Fatalf("undelete not visible: len=%d", st.Len())
	}
}

// TestAddBatchEquivalentToSequentialAdd is the property at the heart of the
// bulk path: for random workloads, one AddBatch must produce exactly the
// same live triple set as a loop of Add, while moving the generation once.
func TestAddBatchEquivalentToSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(400)
		batch := make([]rdf.Triple, n)
		for i := range batch {
			// Small alphabets force duplicates both in-batch and vs earlier rounds.
			batch[i] = tr(
				fmt.Sprintf("s%d", rng.Intn(20)),
				fmt.Sprintf("p%d", rng.Intn(5)),
				fmt.Sprintf("o%d", rng.Intn(30)),
			)
		}

		seq := New()
		for _, trp := range batch {
			if err := seq.Add(trp); err != nil {
				t.Fatal(err)
			}
		}
		bat := New()
		added, err := bat.AddBatch(batch)
		if err != nil {
			t.Fatal(err)
		}

		sameTriples(t, seq, bat)
		if added != seq.Len() {
			t.Fatalf("round %d: AddBatch added %d, sequential landed %d live triples", round, added, seq.Len())
		}
		if added > 0 && bat.Generation() != 1 {
			t.Fatalf("round %d: batch generation = %d, want 1", round, bat.Generation())
		}
	}
}

// TestAddBatchEquivalenceOnPopulatedStore starts both stores from the same
// populated, partially tombstoned state and applies the same batch.
func TestAddBatchEquivalenceOnPopulatedStore(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	mkBase := func() *Store {
		st := New()
		for i := 0; i < 300; i++ {
			st.Add(tr(fmt.Sprintf("s%d", i%15), fmt.Sprintf("p%d", i%4), fmt.Sprintf("o%d", i%40)))
		}
		st.Compact()
		for i := 0; i < 40; i++ {
			st.Delete(tr(fmt.Sprintf("s%d", i%15), fmt.Sprintf("p%d", i%4), fmt.Sprintf("o%d", i%40)))
		}
		return st
	}
	batch := make([]rdf.Triple, 250)
	for i := range batch {
		batch[i] = tr(
			fmt.Sprintf("s%d", rng.Intn(18)),
			fmt.Sprintf("p%d", rng.Intn(4)),
			fmt.Sprintf("o%d", rng.Intn(45)),
		)
	}

	seq := mkBase()
	genSeqBefore := seq.Generation()
	for _, trp := range batch {
		if err := seq.Add(trp); err != nil {
			t.Fatal(err)
		}
	}
	bat := mkBase()
	genBatBefore := bat.Generation()
	added, err := bat.AddBatch(batch)
	if err != nil {
		t.Fatal(err)
	}

	sameTriples(t, seq, bat)
	if wantAdded := int(seq.Generation() - genSeqBefore); added != wantAdded {
		t.Fatalf("AddBatch added %d, sequential made %d effective inserts", added, wantAdded)
	}
	if added > 0 && bat.Generation() != genBatBefore+1 {
		t.Fatalf("batch moved generation by %d, want 1", bat.Generation()-genBatBefore)
	}
}

// TestDeleteReAddMergeInterleavings drives delete → re-add → merge cycles
// through every interleaving of the merge point and checks the store against
// a model map after each step.
func TestDeleteReAddMergeInterleavings(t *testing.T) {
	type step struct {
		op   string // "add", "addbatch", "del", "merge"
		trip rdf.Triple
	}
	a, b, c := tr("a", "p", "1"), tr("b", "p", "2"), tr("c", "p", "3")
	scenarios := [][]step{
		// Delete from base, re-add via batch before the merge.
		{{op: "addbatch", trip: a}, {op: "merge"}, {op: "del", trip: a}, {op: "addbatch", trip: a}, {op: "merge"}},
		// Delete from delta (never merged), then re-add.
		{{op: "add", trip: a}, {op: "del", trip: a}, {op: "addbatch", trip: a}, {op: "merge"}},
		// Delete, merge the tombstone away, then re-add.
		{{op: "add", trip: a}, {op: "merge"}, {op: "del", trip: a}, {op: "merge"}, {op: "addbatch", trip: a}},
		// Interleave two triples' lifecycles across merges.
		{
			{op: "addbatch", trip: a}, {op: "add", trip: b}, {op: "merge"},
			{op: "del", trip: a}, {op: "addbatch", trip: c}, {op: "del", trip: b},
			{op: "merge"}, {op: "addbatch", trip: a}, {op: "addbatch", trip: b},
		},
		// Double delete / double re-add churn.
		{
			{op: "addbatch", trip: a}, {op: "merge"}, {op: "del", trip: a},
			{op: "addbatch", trip: a}, {op: "del", trip: a}, {op: "merge"},
			{op: "addbatch", trip: a},
		},
	}
	for si, steps := range scenarios {
		st := New()
		model := map[rdf.Triple]bool{}
		for pi, s := range steps {
			switch s.op {
			case "add":
				if err := st.Add(s.trip); err != nil {
					t.Fatal(err)
				}
				model[s.trip] = true
			case "addbatch":
				if _, err := st.AddBatch([]rdf.Triple{s.trip}); err != nil {
					t.Fatal(err)
				}
				model[s.trip] = true
			case "del":
				st.Delete(s.trip)
				delete(model, s.trip)
			case "merge":
				st.Compact()
			}
			if st.Len() != len(model) {
				t.Fatalf("scenario %d step %d (%s): Len = %d, model = %d", si, pi, s.op, st.Len(), len(model))
			}
			for trp := range model {
				if !st.Contains(trp) {
					t.Fatalf("scenario %d step %d: model triple %v missing", si, pi, trp)
				}
			}
			for _, trp := range st.Triples() {
				if !model[trp] {
					t.Fatalf("scenario %d step %d: phantom triple %v", si, pi, trp)
				}
			}
		}
	}
}

func TestLoadEmptyKeepsGenerationZero(t *testing.T) {
	for _, input := range [][]rdf.Triple{nil, {}} {
		st, err := Load(input)
		if err != nil {
			t.Fatal(err)
		}
		if st.Generation() != 0 {
			t.Fatalf("empty Load advanced generation to %d", st.Generation())
		}
	}
}

func TestLoadBumpsGenerationOnce(t *testing.T) {
	st, err := Load([]rdf.Triple{tr("a", "p", "1"), tr("b", "p", "2")})
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 1 {
		t.Fatalf("Load generation = %d, want exactly 1", st.Generation())
	}
}

// TestEstimateCountFiltersDelta: after an insert burst on one predicate, the
// estimate for a different predicate must not absorb the whole delta.
func TestEstimateCountFiltersDelta(t *testing.T) {
	st := New()
	for i := 0; i < 200; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "base", fmt.Sprintf("o%d", i)))
	}
	st.Compact()
	// Burst of delta inserts on an unrelated predicate (small enough to
	// stay unmerged: 500 <= 1024).
	for i := 0; i < 500; i++ {
		st.Add(tr(fmt.Sprintf("b%d", i), "burst", fmt.Sprintf("x%d", i)))
	}
	got := estimateCount(st, Pattern{P: iri("base")})
	if got != 200 {
		t.Fatalf("EstimateCount(base) = %d after unrelated burst, want 200", got)
	}
	if got := estimateCount(st, Pattern{P: iri("burst")}); got != 500 {
		t.Fatalf("EstimateCount(burst) = %d, want 500", got)
	}
	if got := estimateCount(st, Pattern{}); got != 700 {
		t.Fatalf("EstimateCount(all) = %d, want 700", got)
	}
	if got := estimateCount(st, Pattern{S: iri("b7"), P: iri("burst")}); got != 1 {
		t.Fatalf("EstimateCount(b7,burst) = %d, want 1", got)
	}
}
