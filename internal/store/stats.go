package store

import (
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
)

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
// summary is made of: per predicate the statement count and the distinct
// subjects and objects, and per rdf:type object the instance count. It is
// the one accumulator behind ComputeStats, Cardinalities and the streaming
// explore.StreamStats, so the three cannot drift apart; it hashes IDs only
// and decodes nothing until a result is asked for.
type StatsAccumulator struct {
	typeID  ID
	preds   map[ID]*predTally
	classes map[ID]int
	scanned int
}

type predTally struct {
	triples int
	subj    map[ID]struct{}
	// obj maps each distinct object to its occurrence count, so the
	// literal-object tally needs one kind check per distinct object rather
	// than one per triple. A count is one per distinct subject, of which
	// there are fewer than 2^32, and the narrow value keeps the map at the
	// size of a set.
	obj map[ID]uint32
}

// NewStatsAccumulator starts an empty tally; typeID is rdf:type's
// dictionary ID (0 when the store has none: no classes are counted).
func NewStatsAccumulator(typeID ID) *StatsAccumulator {
	return &StatsAccumulator{typeID: typeID, preds: map[ID]*predTally{}, classes: map[ID]int{}}
}

// Visit counts one live triple.
func (a *StatsAccumulator) Visit(t IDTriple) {
	pt := a.preds[t.P]
	if pt == nil {
		pt = &predTally{subj: map[ID]struct{}{}, obj: map[ID]uint32{}}
		a.preds[t.P] = pt
	}
	pt.triples++
	pt.subj[t.S] = struct{}{}
	pt.obj[t.O]++
	if a.typeID != 0 && t.P == a.typeID {
		a.classes[t.O]++
	}
	a.scanned++
}

// Scanned returns how many triples have been visited.
func (a *StatsAccumulator) Scanned() int { return a.scanned }

// Predicates calls fn with each predicate seen so far and its counts.
func (a *StatsAccumulator) Predicates(fn func(p ID, c PredCardinality)) {
	for pid, pt := range a.preds {
		fn(pid, PredCardinality{Triples: pt.triples, DistinctSubjects: len(pt.subj), DistinctObjects: len(pt.obj)})
	}
}

// Classes calls fn with each rdf:type object seen so far and its instance
// count.
func (a *StatsAccumulator) Classes(fn func(class ID, n int)) {
	for cid, n := range a.classes {
		fn(cid, n)
	}
}

// TermIDs lists every ID Stats will ask its term function for (an object
// two predicates share is listed twice): what a caller without the
// dictionary at hand decodes in one batch first.
func (a *StatsAccumulator) TermIDs() []ID {
	var ids []ID
	for pid, pt := range a.preds {
		ids = append(ids, pid)
		for oid := range pt.obj {
			ids = append(ids, oid)
		}
	}
	for cid := range a.classes {
		ids = append(ids, cid)
	}
	return ids
}

// Stats decodes the tally into the exact summary of what was visited; term
// resolves a dictionary ID and numTerms is the dictionary size. Each
// predicate and class is resolved once, each distinct object once per
// predicate carrying it.
func (a *StatsAccumulator) Stats(numTerms int, term func(ID) rdf.Term) Stats {
	s := Stats{Triples: a.scanned, Terms: numTerms, Classes: make(map[rdf.Term]int, len(a.classes))}
	for cid, n := range a.classes {
		s.Classes[term(cid)] = n
	}
	for pid, pt := range a.preds {
		iri, ok := term(pid).(rdf.IRI)
		if !ok {
			continue
		}
		lits := 0
		for oid, n := range pt.obj {
			if term(oid).Kind() == rdf.KindLiteral {
				lits += int(n)
			}
		}
		s.Predicates = append(s.Predicates, PredicateStat{
			Predicate:        iri,
			Triples:          pt.triples,
			DistinctSubjects: len(pt.subj),
			DistinctObjects:  len(pt.obj),
			LiteralObjects:   lits,
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

// accumulateLocked visits every live triple: the base through POS, where a
// predicate's statements and an object's repeats sit next to each other
// (the tally's maps are then hit where they were just hit), then the delta.
// Caller holds mu.
func (st *Store) accumulateLocked() *StatsAccumulator {
	typeID, _ := st.lookup(rdf.RDFType)
	a := NewStatsAccumulator(typeID)
	st.walkLocked(st.index[OrderPOS], st.delta, IDTriple{}, 0, 0, func(t IDTriple) bool {
		a.Visit(t)
		return true
	})
	return a
}

// ComputeStats scans the store once and produces summary statistics,
// the kind of source summary LODeX-style tools generate (Section 3.4),
// under one consistent read view.
func (st *Store) ComputeStats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.accumulateLocked().Stats(len(st.terms)-1, func(id ID) rdf.Term { return st.terms[id] })
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

// Cardinalities returns the per-predicate cardinality table. The result is
// cached inside the store and recomputed lazily after mutations, so steady
// read-mostly query workloads pay for the O(n) scan once. Callers must treat
// the returned map as read-only.
func (st *Store) Cardinalities() map[rdf.IRI]PredCardinality {
	st.mu.RLock()
	if c := st.cards; c != nil {
		st.mu.RUnlock()
		return c
	}
	st.mu.RUnlock()

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cards == nil {
		st.cards = st.computeCardinalitiesLocked()
	}
	return st.cards
}

// PredicateCardinality returns the cardinality record for one predicate.
func (st *Store) PredicateCardinality(p rdf.IRI) (PredCardinality, bool) {
	c, ok := st.Cardinalities()[p]
	return c, ok
}

// computeCardinalitiesLocked scans base + delta once, in ID space, skipping
// tombstones. Caller holds mu.
func (st *Store) computeCardinalitiesLocked() map[rdf.IRI]PredCardinality {
	out := map[rdf.IRI]PredCardinality{}
	st.accumulateLocked().Predicates(func(pid ID, c PredCardinality) {
		if p, ok := st.terms[pid].(rdf.IRI); ok {
			out[p] = c
		}
	})
	return out
}

// DegreeHistogram returns, for each out-degree d present, how many subjects
// have exactly d outgoing statements — the degree profile graph visualizers
// need for layout and abstraction decisions.
func (st *Store) DegreeHistogram() map[int]int {
	deg := map[rdf.Term]int{}
	st.ForEach(Pattern{}, func(t rdf.Triple) bool {
		deg[t.S]++
		return true
	})
	hist := map[int]int{}
	for _, d := range deg {
		hist[d]++
	}
	return hist
}
