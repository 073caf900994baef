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

	m, ok := st.resolvePatternLocked(p)
	if !ok {
		return
	}
	st.walkLocked(st.rangeLocked(m), st.delta, m, 0, 0, func(e IDTriple) bool { return fn(st.decodeLocked(e)) })
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
	m, ok := st.resolvePatternLocked(p)
	if !ok {
		return pos, true
	}
	return st.walkLocked(st.rangeLocked(m), st.delta, m, pos, max, func(e IDTriple) bool { return fn(st.decodeLocked(e)) })
}

// decodeLocked is the term-space form of one index entry. Caller holds mu.
func (st *Store) decodeLocked(e IDTriple) rdf.Triple {
	return rdf.Triple{S: st.terms[e.S], P: st.terms[e.P].(rdf.IRI), O: st.terms[e.O]}
}

// resolvePatternLocked looks the pattern's constant terms up as a mask;
// ok=false means a constant is absent from the dictionary and nothing can
// match. Caller holds mu.
func (st *Store) resolvePatternLocked(p Pattern) (m IDTriple, ok bool) {
	if p.S != nil {
		if m.S, ok = st.lookup(p.S); !ok {
			return IDTriple{}, false
		}
	}
	if p.P != nil {
		if m.P, ok = st.lookup(p.P); !ok {
			return IDTriple{}, false
		}
	}
	if p.O != nil {
		if m.O, ok = st.lookup(p.O); !ok {
			return IDTriple{}, false
		}
	}
	return m, true
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
