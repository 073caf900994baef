package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/lodviz/lodviz/internal/rdf"
)

func iri(s string) rdf.IRI { return rdf.IRI("http://e/" + s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.T(iri(s), iri(p), iri(o))
}

func TestAddContainsDelete(t *testing.T) {
	st := New()
	a := tr("s", "p", "o")
	if err := st.Add(a); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !st.Contains(a) {
		t.Error("Contains after Add = false")
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
	// Duplicate insert is idempotent.
	if err := st.Add(a); err != nil {
		t.Fatalf("Add dup: %v", err)
	}
	if st.Len() != 1 {
		t.Errorf("Len after dup = %d, want 1", st.Len())
	}
	if !st.Delete(a) {
		t.Error("Delete = false, want true")
	}
	if st.Contains(a) || st.Len() != 0 {
		t.Error("triple still visible after Delete")
	}
	if st.Delete(a) {
		t.Error("double Delete = true, want false")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	st := New()
	if err := st.Add(rdf.Triple{S: rdf.NewLiteral("x"), P: "p", O: iri("o")}); err == nil {
		t.Error("Add accepted literal subject")
	}
}

func TestReAddAfterDelete(t *testing.T) {
	st := New()
	a := tr("s", "p", "o")
	st.Add(a)
	st.Delete(a)
	st.Add(a)
	if !st.Contains(a) || st.Len() != 1 {
		t.Error("re-add after delete failed")
	}
}

func TestMatchPatterns(t *testing.T) {
	st := New()
	data := []rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s1", "p1", "o2"),
		tr("s1", "p2", "o1"),
		tr("s2", "p1", "o1"),
		tr("s2", "p2", "o3"),
	}
	if err := st.AddAll(data); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pat  Pattern
		want int
	}{
		{"all", Pattern{}, 5},
		{"s", Pattern{S: iri("s1")}, 3},
		{"p", Pattern{P: iri("p1")}, 3},
		{"o", Pattern{O: iri("o1")}, 3},
		{"sp", Pattern{S: iri("s1"), P: iri("p1")}, 2},
		{"so", Pattern{S: iri("s1"), O: iri("o1")}, 2},
		{"po", Pattern{P: iri("p1"), O: iri("o1")}, 2},
		{"spo", Pattern{S: iri("s2"), P: iri("p2"), O: iri("o3")}, 1},
		{"missing", Pattern{S: iri("nope")}, 0},
	}
	for _, c := range cases {
		if got := st.Count(c.pat); got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, got, c.want)
		}
		if got := len(st.Match(c.pat)); got != c.want {
			t.Errorf("%s: len(Match) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMatchSeesDeltaAndBase(t *testing.T) {
	st, err := Load([]rdf.Triple{tr("s", "p", "base")})
	if err != nil {
		t.Fatal(err)
	}
	st.Add(tr("s", "p", "delta")) // stays in delta buffer (below threshold)
	if got := st.Count(Pattern{S: iri("s")}); got != 2 {
		t.Errorf("Count = %d, want 2 (base+delta)", got)
	}
	st.Compact()
	if got := st.Count(Pattern{S: iri("s")}); got != 2 {
		t.Errorf("Count after Compact = %d, want 2", got)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	st := New()
	for i := 0; i < 10; i++ {
		st.Add(tr("s", "p", fmt.Sprintf("o%d", i)))
	}
	n := 0
	st.ForEach(Pattern{}, func(rdf.Triple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d, want 3", n)
	}
}

func TestSubjectsObjectsPredicates(t *testing.T) {
	st := New()
	st.AddAll([]rdf.Triple{
		tr("a", "type", "Person"),
		tr("b", "type", "Person"),
		tr("a", "knows", "b"),
	})
	if got := len(st.Subjects(iri("type"), iri("Person"))); got != 2 {
		t.Errorf("Subjects = %d, want 2", got)
	}
	if got := len(st.Objects(iri("a"), nil)); got != 2 {
		t.Errorf("Objects = %d, want 2", got)
	}
	if got := len(st.Predicates()); got != 2 {
		t.Errorf("Predicates = %d, want 2", got)
	}
}

func TestTermRoundTrip(t *testing.T) {
	st := New()
	st.Add(tr("s", "p", "o"))
	term, ok := st.Term(1)
	if !ok || term == nil {
		t.Error("Term(1) not found")
	}
	if _, ok := st.Term(0); ok {
		t.Error("Term(0) should not exist")
	}
	if _, ok := st.Term(999); ok {
		t.Error("Term(999) should not exist")
	}
}

func TestComputeStats(t *testing.T) {
	st := New()
	st.AddAll([]rdf.Triple{
		rdf.T(iri("a"), rdf.RDFType, iri("Person")),
		rdf.T(iri("b"), rdf.RDFType, iri("Person")),
		rdf.T(iri("c"), rdf.RDFType, iri("Place")),
		rdf.T(iri("a"), iri("name"), rdf.NewLiteral("Alice")),
	})
	s := st.ComputeStats()
	if s.Triples != 4 {
		t.Errorf("Triples = %d", s.Triples)
	}
	if s.Classes[iri("Person")] != 2 || s.Classes[iri("Place")] != 1 {
		t.Errorf("Classes = %v", s.Classes)
	}
	if len(s.Predicates) != 2 {
		t.Fatalf("Predicates = %v", s.Predicates)
	}
	// rdf:type has 3 triples, sorted first.
	if s.Predicates[0].Predicate != rdf.RDFType || s.Predicates[0].Triples != 3 {
		t.Errorf("top predicate = %+v", s.Predicates[0])
	}
	if s.Predicates[0].DistinctSubjects != 3 || s.Predicates[0].DistinctObjects != 2 {
		t.Errorf("type cardinalities = %+v", s.Predicates[0])
	}
	if s.Predicates[1].LiteralObjects != 1 {
		t.Errorf("literal count = %+v", s.Predicates[1])
	}
}

func TestDegreeHistogram(t *testing.T) {
	st := New()
	st.AddAll([]rdf.Triple{
		tr("a", "p", "x"), tr("a", "q", "y"), // a: degree 2
		tr("b", "p", "x"), // b: degree 1
	})
	h := st.DegreeHistogram()
	if h[2] != 1 || h[1] != 1 {
		t.Errorf("DegreeHistogram = %v", h)
	}
}

// buildRandom creates a reference map and a store with the same content,
// applying interleaved adds and deletes.
func buildRandom(seed int64, n int) (*Store, map[rdf.Triple]struct{}) {
	rng := rand.New(rand.NewSource(seed))
	st := New()
	ref := map[rdf.Triple]struct{}{}
	for i := 0; i < n; i++ {
		t := rdf.T(
			iri(fmt.Sprintf("s%d", rng.Intn(20))),
			iri(fmt.Sprintf("p%d", rng.Intn(5))),
			iri(fmt.Sprintf("o%d", rng.Intn(30))),
		)
		if rng.Float64() < 0.8 {
			st.Add(t)
			ref[t] = struct{}{}
		} else {
			st.Delete(t)
			delete(ref, t)
		}
		if rng.Float64() < 0.02 {
			st.Compact()
		}
	}
	return st, ref
}

// Property: after any interleaving of adds/deletes/compactions, the store's
// visible content equals a reference set, for every access path.
func TestStoreMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		st, ref := buildRandom(seed, 400)
		if st.Len() != len(ref) {
			return false
		}
		got := st.Triples()
		if len(got) != len(ref) {
			return false
		}
		for _, tr := range got {
			if _, ok := ref[tr]; !ok {
				return false
			}
		}
		// Every scan entry point, every mask, as the interleaving left the
		// store and again compacted.
		checkScansAgainstModel(t, st, ref)
		st.Compact()
		checkScansAgainstModel(t, st, ref)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: every permutation index in the table holds the same triples
// after compaction, each strictly sorted in the order its name spells.
func TestIndexCoherenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		st, _ := buildRandom(seed, 300)
		st.Compact()
		st.mu.RLock()
		defer st.mu.RUnlock()
		set := map[IDTriple]struct{}{}
		for _, e := range st.index[OrderSPO] {
			set[e] = struct{}{}
		}
		for i := range permutations {
			ord, idx := ScanOrder(i), st.index[i]
			if len(idx) != len(set) {
				return false
			}
			for j, e := range idx {
				if _, ok := set[e]; !ok {
					return false
				}
				if j > 0 && compareByName(ord, idx[j-1], e) >= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	st := New()
	for i := 0; i < 100; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "p", "o"))
	}
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				st.Count(Pattern{P: iri("p")})
			}
			done <- true
		}()
	}
	go func() {
		for i := 0; i < 50; i++ {
			st.Add(tr(fmt.Sprintf("w%d", i), "p", "o"))
		}
		done <- true
	}()
	for i := 0; i < 9; i++ {
		<-done
	}
	if got := st.Count(Pattern{P: iri("p")}); got != 150 {
		t.Errorf("Count = %d, want 150", got)
	}
}

func TestLiteralObjects(t *testing.T) {
	st := New()
	st.Add(rdf.T(iri("s"), iri("age"), rdf.NewInteger(30)))
	st.Add(rdf.T(iri("s"), iri("age"), rdf.NewInteger(31)))
	got := st.Match(Pattern{P: iri("age"), O: rdf.NewInteger(30)})
	if len(got) != 1 {
		t.Errorf("literal object match = %d, want 1", len(got))
	}
}

// estimateCount sizes a term pattern the way the planner does: constants
// resolved to IDs (an absent one matches nothing), then EstimateCountIDs.
func estimateCount(st *Store, p Pattern) int {
	s, pr, o, ok := resolvePattern(st, p)
	if !ok {
		return 0
	}
	return st.EstimateCountIDs(s, pr, o)
}

func resolvePattern(st *Store, p Pattern) (s, pr, o ID, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	m, ok := st.resolvePatternLocked(p)
	return m.S, m.P, m.O, ok
}

func TestEstimateCount(t *testing.T) {
	st := New()
	for i := 0; i < 100; i++ {
		st.Add(tr(fmt.Sprintf("s%d", i), "common", "o"))
	}
	st.Add(tr("s0", "rare", "o"))
	st.Compact()
	if got := estimateCount(st, Pattern{P: iri("common")}); got != 100 {
		t.Errorf("estimate(common) = %d, want 100", got)
	}
	if got := estimateCount(st, Pattern{P: iri("rare")}); got != 1 {
		t.Errorf("estimate(rare) = %d, want 1", got)
	}
	if got := estimateCount(st, Pattern{P: iri("absent")}); got != 0 {
		t.Errorf("estimate(absent) = %d, want 0", got)
	}
	if got := estimateCount(st, Pattern{}); got != 101 {
		t.Errorf("estimate(all) = %d, want 101", got)
	}
	if got := estimateCount(st, Pattern{S: iri("s0")}); got != 2 {
		t.Errorf("estimate(s0) = %d, want 2", got)
	}
	// Delta inflates estimates by its size (upper bound, never under).
	st.Add(tr("new", "common", "o2"))
	if got := estimateCount(st, Pattern{P: iri("rare")}); got < 1 {
		t.Errorf("estimate with delta = %d, must not underestimate", got)
	}
}
