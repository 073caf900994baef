package store

import (
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Statistics. Every dataset summary — /stats, the planner's cardinalities,
// a snapshot's stats section — is one sum over the live triples, which the
// store keeps itself: a StatsAccumulator built by one POS walk when first
// asked for, then moved by ±1 per triple of the effective batches
// commitLocked publishes (no-ops, duplicates and undeletes are sorted out
// before them). A read is O(predicates + classes) under the read lock; until
// the first, writes pay nothing; compaction leaves it alone.

// PredicateStat summarizes one predicate's usage; the exploration layer uses
// these for facet ordering and join-selectivity estimates.
type PredicateStat struct {
	Predicate rdf.IRI
	// Triples is the number of statements with this predicate.
	Triples int
	// DistinctSubjects and DistinctObjects are the cardinalities of each
	// side.
	DistinctSubjects int
	DistinctObjects  int
	// LiteralObjects counts object positions holding literals.
	LiteralObjects int
}

// Stats summarizes the dataset for the exploration layer.
type Stats struct {
	Triples    int
	Terms      int
	Predicates []PredicateStat
	// Classes maps rdf:type objects to instance counts.
	Classes map[rdf.Term]int
}

// StatsAccumulator tallies, in dictionary-ID space, what every dataset
// summary is made of: per predicate the statement count, the literal
// objects, and how often each subject and each object occurs; per rdf:type
// object the instance count. Add and Remove move it by one triple, so it
// serves a scan (explore.StreamStats) and the store's maintained tally
// alike; it hashes IDs only and decodes nothing until a result is asked for.
type StatsAccumulator struct {
	typeID  ID
	preds   map[ID]*predTally
	classes map[ID]uint32
	triples int
}

// predTally is one predicate's share. subj and obj count each value's
// occurrences, so a removal knows when the last one goes; a count is below
// 2^32 (one per distinct value on the other side).
type predTally struct {
	triples, literals int
	subj, obj         map[ID]uint32
}

// NewStatsAccumulator starts an empty tally; typeID is rdf:type's
// dictionary ID (0 when the store has none: no classes are counted).
func NewStatsAccumulator(typeID ID) *StatsAccumulator {
	return &StatsAccumulator{typeID: typeID, preds: map[ID]*predTally{}, classes: map[ID]uint32{}}
}

// Add counts one live triple; lit says whether its object is a literal.
func (a *StatsAccumulator) Add(t IDTriple, lit bool) {
	pt := a.preds[t.P]
	if pt == nil {
		pt = &predTally{subj: map[ID]uint32{}, obj: map[ID]uint32{}}
		a.preds[t.P] = pt
	}
	pt.triples++
	if lit {
		pt.literals++
	}
	pt.subj[t.S]++
	pt.obj[t.O]++
	if t.P == a.typeID {
		a.classes[t.O]++
	}
	a.triples++
}

// Remove uncounts one triple Add counted, with the same lit.
func (a *StatsAccumulator) Remove(t IDTriple, lit bool) {
	pt := a.preds[t.P]
	if pt.triples--; pt.triples == 0 {
		delete(a.preds, t.P)
	} else {
		if lit {
			pt.literals--
		}
		decrement(pt.subj, t.S)
		decrement(pt.obj, t.O)
	}
	if t.P == a.typeID {
		decrement(a.classes, t.O)
	}
	a.triples--
}

// decrement takes one occurrence of k off m, deleting k with its last.
func decrement(m map[ID]uint32, k ID) {
	if m[k] <= 1 {
		delete(m, k)
	} else {
		m[k]--
	}
}

// Triples returns how many triples the tally holds.
func (a *StatsAccumulator) Triples() int { return a.triples }

// Predicates calls fn with each predicate counted and its cardinalities.
func (a *StatsAccumulator) Predicates(fn func(p ID, c PredCardinality)) {
	for pid, pt := range a.preds {
		fn(pid, PredCardinality{Triples: pt.triples, DistinctSubjects: len(pt.subj), DistinctObjects: len(pt.obj)})
	}
}

// Classes calls fn with each rdf:type object counted and its instance count.
func (a *StatsAccumulator) Classes(fn func(class ID, n int)) {
	for cid, n := range a.classes {
		fn(cid, int(n))
	}
}

// entries is the tally's size in map entries, the measure of its memory;
// 0 for no tally.
func (a *StatsAccumulator) entries() int {
	if a == nil {
		return 0
	}
	n := len(a.preds) + len(a.classes)
	for _, pt := range a.preds {
		n += len(pt.subj) + len(pt.obj)
	}
	return n
}

// Stats decodes the tally into the exact summary of what it holds; term
// resolves a dictionary ID and numTerms is the dictionary size. Only the
// predicates and classes are resolved.
func (a *StatsAccumulator) Stats(numTerms int, term func(ID) rdf.Term) Stats {
	s := Stats{Triples: a.triples, Terms: numTerms, Classes: make(map[rdf.Term]int, len(a.classes))}
	for cid, n := range a.classes {
		s.Classes[term(cid)] = int(n)
	}
	for pid, pt := range a.preds {
		iri, ok := term(pid).(rdf.IRI)
		if !ok {
			continue
		}
		s.Predicates = append(s.Predicates, PredicateStat{
			Predicate:        iri,
			Triples:          pt.triples,
			DistinctSubjects: len(pt.subj),
			DistinctObjects:  len(pt.obj),
			LiteralObjects:   pt.literals,
		})
	}
	sort.Slice(s.Predicates, func(i, j int) bool {
		if s.Predicates[i].Triples != s.Predicates[j].Triples {
			return s.Predicates[i].Triples > s.Predicates[j].Triples
		}
		return s.Predicates[i].Predicate < s.Predicates[j].Predicate
	})
	return s
}

// tallyLocked returns the store's maintained tally, building it the first
// time by one walk: the base through POS, where a predicate's statements
// and an object's repeats sit next to each other (the tally's maps are then
// hit where they were just hit), then the delta. Caller holds mu for
// writing.
func (st *Store) tallyLocked() *StatsAccumulator {
	if st.tally == nil {
		typeID, _ := st.lookup(rdf.RDFType)
		a := NewStatsAccumulator(typeID)
		st.walkLocked(st.index[OrderPOS], st.delta, IDTriple{}, 0, 0, func(t IDTriple) bool {
			a.Add(t, st.terms[t.O].Kind() == rdf.KindLiteral)
			return true
		})
		st.tally = a
		st.tallyBuilds++
	}
	return st.tally
}

// countLocked moves the tally, if there is one, by an effective batch;
// rdf:type may be interned after the tally was built. Caller holds mu.
func (st *Store) countLocked(del bool, triples []IDTriple) {
	a := st.tally
	if a == nil {
		return
	}
	if a.typeID == 0 {
		a.typeID, _ = st.lookup(rdf.RDFType)
	}
	for _, t := range triples {
		lit := st.terms[t.O].Kind() == rdf.KindLiteral
		if del {
			a.Remove(t, lit)
		} else {
			a.Add(t, lit)
		}
	}
}

// readTally calls fn with the maintained tally under the read lock, or under
// the write lock the one time the tally has to be built.
func (st *Store) readTally(fn func(a *StatsAccumulator)) {
	st.mu.RLock()
	if a := st.tally; a != nil {
		defer st.mu.RUnlock()
		fn(a)
		return
	}
	st.mu.RUnlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	fn(st.tallyLocked())
}

// ComputeStats returns the dataset's summary statistics, the kind of source
// summary LODeX-style tools generate (Section 3.4), read from the store's
// maintained tally under one consistent read view.
func (st *Store) ComputeStats() (s Stats) {
	st.readTally(func(a *StatsAccumulator) {
		s = a.Stats(len(st.terms)-1, func(id ID) rdf.Term { return st.terms[id] })
	})
	return s
}

// PredCardinality holds the per-predicate cardinalities the SPARQL planner
// uses for join-selectivity estimation: how many statements use the
// predicate, and how many distinct terms appear on each side. The expected
// fan-out of probing `?s <p> ?o` with ?s already bound is
// Triples/DistinctSubjects; with ?o bound it is Triples/DistinctObjects.
type PredCardinality struct {
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// Cardinalities returns the per-predicate cardinality table, read from the
// store's maintained tally in O(predicates). The map is the caller's.
func (st *Store) Cardinalities() map[rdf.IRI]PredCardinality {
	out := map[rdf.IRI]PredCardinality{}
	st.readTally(func(a *StatsAccumulator) {
		a.Predicates(func(pid ID, c PredCardinality) {
			if p, ok := st.terms[pid].(rdf.IRI); ok {
				out[p] = c
			}
		})
	})
	return out
}
