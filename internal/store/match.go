package store

import (
	"github.com/lodviz/lodviz/internal/rdf"
)

// Pattern is a triple pattern; nil fields are wildcards.
type Pattern struct {
	S rdf.Term
	P rdf.Term
	O rdf.Term
}

// Match returns all triples matching the pattern. For exploratory front-ends
// that need streaming, use ForEach; Match materializes the result.
func (st *Store) Match(p Pattern) []rdf.Triple {
	var out []rdf.Triple
	st.ForEach(p, func(t rdf.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Count returns the number of triples matching the pattern without
// materializing them.
func (st *Store) Count(p Pattern) int {
	n := 0
	st.ForEach(p, func(rdf.Triple) bool { n++; return true })
	return n
}

// ForEach streams triples matching the pattern to fn. Iteration stops early
// when fn returns false. The store must not be mutated from inside fn, and
// fn must not scan the store again: the read lock is held for the whole
// iteration, and on a sync.RWMutex a nested RLock behind a queued writer
// deadlocks. Long-running consumers should page with ForEachPage instead.
func (st *Store) ForEach(p Pattern, fn func(rdf.Triple) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()

	sid, pid, oid, ok := st.resolvePatternLocked(p)
	if !ok {
		return
	}
	st.forEachIDLocked(sid, pid, oid, func(e enc) bool { return fn(st.decodeLocked(e)) })
}

// ForEachPage is ForEachIDPage for a term pattern: the constants are
// resolved and every match decoded under the page's one lock hold, so a
// caller gets terms without a second lock round trip per page. The cursor,
// the page contract and the epoch caveat are ForEachIDPage's; a constant
// absent from the dictionary ends the scan at once (done=true).
func (st *Store) ForEachPage(p Pattern, pos, max int, fn func(rdf.Triple) bool) (next int, done bool) {
	if max < 1 {
		return pos, false
	}
	st.scanPages.Add(1)
	st.mu.RLock()
	defer st.mu.RUnlock()
	sid, pid, oid, ok := st.resolvePatternLocked(p)
	if !ok {
		return pos, true
	}
	return st.forEachIDPageLocked(sid, pid, oid, pos, max, func(e enc) bool {
		return fn(st.decodeLocked(e))
	})
}

// decodeLocked is the term-space form of one index entry. Caller holds mu.
func (st *Store) decodeLocked(e enc) rdf.Triple {
	return rdf.Triple{S: st.terms[e.s], P: st.terms[e.p].(rdf.IRI), O: st.terms[e.o]}
}

// resolvePatternLocked interns the pattern's constant terms to IDs;
// ok=false means a constant is absent from the dictionary and nothing can
// match. Caller holds mu.
func (st *Store) resolvePatternLocked(p Pattern) (s, pr, o ID, ok bool) {
	if p.S != nil {
		if s, ok = st.lookup(p.S); !ok {
			return 0, 0, 0, false
		}
	}
	if p.P != nil {
		if pr, ok = st.lookup(p.P); !ok {
			return 0, 0, 0, false
		}
	}
	if p.O != nil {
		if o, ok = st.lookup(p.O); !ok {
			return 0, 0, 0, false
		}
	}
	return s, pr, o, true
}

// scanRangeLocked picks the permutation index and the contiguous range
// covering the bound positions (0 = wildcard), via the same selection table
// (PermutationFor) the ID-space scan API exposes. Caller holds mu.
func (st *Store) scanRangeLocked(s, p, o ID) (base []enc, lo, hi int) {
	ord, _ := PermutationFor(s != 0, p != 0, o != 0, PosAny)
	base = st.indexFor(ord)
	lo, hi = rangeIn(ord, base, s, p, o)
	return base, lo, hi
}

// forEachIDLocked drives the index scan in ID space (0 = wildcard).
func (st *Store) forEachIDLocked(s, p, o ID, fn func(enc) bool) {
	base, lo, hi := st.scanRangeLocked(s, p, o)
	for i := lo; i < hi; i++ {
		e := base[i]
		if _, dead := st.deleted[e]; dead {
			continue
		}
		if !fn(e) {
			return
		}
	}
	for _, e := range st.delta {
		if !e.matches(s, p, o) {
			continue
		}
		if _, dead := st.deleted[e]; dead {
			continue
		}
		if !fn(e) {
			return
		}
	}
}

// Subjects returns the distinct subjects matching a (p, o) restriction
// (either may be nil).
func (st *Store) Subjects(p, o rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{}
	var out []rdf.Term
	st.ForEach(Pattern{P: p, O: o}, func(t rdf.Triple) bool {
		if _, dup := seen[t.S]; !dup {
			seen[t.S] = struct{}{}
			out = append(out, t.S)
		}
		return true
	})
	return out
}

// Objects returns the distinct objects for a (s, p) restriction (either may
// be nil).
func (st *Store) Objects(s, p rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{}
	var out []rdf.Term
	st.ForEach(Pattern{S: s, P: p}, func(t rdf.Triple) bool {
		if _, dup := seen[t.O]; !dup {
			seen[t.O] = struct{}{}
			out = append(out, t.O)
		}
		return true
	})
	return out
}

// Predicates returns the distinct predicates in the store.
func (st *Store) Predicates() []rdf.IRI {
	seen := map[rdf.IRI]struct{}{}
	var out []rdf.IRI
	st.ForEach(Pattern{}, func(t rdf.Triple) bool {
		if _, dup := seen[t.P]; !dup {
			seen[t.P] = struct{}{}
			out = append(out, t.P)
		}
		return true
	})
	return out
}

// Triples returns every live triple (mainly for tests and export).
func (st *Store) Triples() []rdf.Triple {
	return st.Match(Pattern{})
}
