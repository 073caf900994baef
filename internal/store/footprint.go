package store

import (
	"slices"
	"sync"
)

// Footprint is what a result derived from the store read, in dictionary-ID
// space: the rules by which a later change can be cleared of having altered
// it. Whoever keeps such a result remembers the generation it was computed
// at and asks, change by change (DigestsSince, one Digest each), whether the
// footprint was touched; untouched means the result is exactly what a fresh
// computation would give. IDs are only ever appended and never reassigned,
// so a footprint stays meaningful for as long as the log covers the span.
//
// Every rule errs towards "touched". The zero Footprint reads the whole
// store: any change touches it.
type Footprint struct {
	// Patterns are triple masks (0 = any term). A changed triple that
	// matches none of them cannot alter any mask's match set.
	Patterns []IDTriple
	// Nodes, ascending, are resources whose every statement, in either
	// direction, the result may have read: a changed triple touches it when
	// its subject or object is among them.
	Nodes []ID
	// Entities defines a set of subjects — those having, for each mask, a
	// triple (s, P, O), O = 0 meaning any object; S is unused — all of whose
	// statements the result read. A changed triple touches it when it
	// matches a mask (the set itself may have moved) or when its subject is
	// in the set. When no change in a span matches a mask, membership is
	// constant over the span, so the second test may read the subject at
	// any point of it (see TouchedBy).
	Entities []IDTriple
}

// Whole reports whether the footprint is the whole store.
func (f *Footprint) Whole() bool {
	return len(f.Patterns) == 0 && len(f.Nodes) == 0 && len(f.Entities) == 0
}

// Digest is one logged batch — the triples that entered (or, with del, left)
// the live set, and the generation that doing so produced — reduced to the
// sets a Footprint is tested against: the distinct subjects, predicates,
// objects and (predicate, object) pairs of its triples, each ascending. The
// change log holds one per batch (changelog.go); the sets are built the
// first time DigestsSince hands it out, and one digest then serves every
// follower of that change, from any goroutine.
type Digest struct {
	Gen     uint64
	del     bool
	triples []IDTriple // the batch as logged, shared with the write path

	sets    sync.Once
	s, p, o []ID
	po      []uint64

	// named is every statement of the change's subjects as the store held
	// them at generation namedAt >= Gen, grouped by subject: what the
	// Entities rule tests membership on, read the first time a footprint
	// asks and shared by all that follow (see TouchedBy for why a reading
	// that has aged is still the right one).
	once    sync.Once
	named   []IDTriple
	namedAt uint64
}

// build computes the sets, once.
func (d *Digest) build() {
	d.sets.Do(func() {
		n := len(d.triples)
		s, p, o, po := make([]ID, n), make([]ID, n), make([]ID, n), make([]uint64, n)
		for i, t := range d.triples {
			s[i], p[i], o[i], po[i] = t.S, t.P, t.O, PackPair(t.P, t.O)
		}
		d.s, d.p, d.o, d.po = sortedSet(s), sortedSet(p), sortedSet(o), sortedSet(po)
	})
}

// Subjects returns the distinct subjects of the change, ascending. The slice
// is shared by every follower: read it, never modify it.
func (d *Digest) Subjects() []ID { return d.s }

func sortedSet[T ID | uint64](s []T) []T {
	slices.Sort(s)
	return slices.Clip(slices.Compact(s))
}

func has[T ID | uint64](set []T, v T) bool {
	_, ok := slices.BinarySearch(set, v)
	return ok
}

// matches reports whether some triple of the change may match the mask: each
// bound position occurs in the change, and so does the (P, O) pair when both
// are bound. Positions are otherwise tested independently, which can only
// err towards a match.
func (d *Digest) matches(m IDTriple) bool {
	if m.S != 0 && !has(d.s, m.S) {
		return false
	}
	if m.P != 0 && m.O != 0 {
		return has(d.po, PackPair(m.P, m.O))
	}
	return (m.P == 0 || has(d.p, m.P)) && (m.O == 0 || has(d.o, m.O))
}

// overlaps reports whether two ascending sets share a member, searching the
// longer for each member of the shorter.
func overlaps(a, b []ID) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for _, v := range a {
		if has(b, v) {
			return true
		}
	}
	return false
}

// TouchedBy reports whether any of the digested changes, which must be
// consecutive, may have altered a result with footprint f.
//
// The Entities rule needs to know whether a subject a change names was in
// the set at the time. It reads the subject's statements once per digest,
// at some generation from the change's own up to the end of the span, and
// trusts that reading for the whole span: a change that moved a subject in
// or out of the set matches a mask, every change is tested against the
// masks first, and so either the span is already "touched" or membership
// held still throughout it. A reading made after the span's end (a write
// landed between the caller's digesting and this call) vouches for nothing,
// and the answer is "touched".
func (st *Store) TouchedBy(f *Footprint, span []*Digest) bool {
	if len(span) == 0 {
		return false
	}
	if f.Whole() {
		return true
	}
	for _, d := range span {
		for _, m := range f.Patterns {
			if d.matches(m) {
				return true
			}
		}
		if len(f.Nodes) > 0 && (overlaps(f.Nodes, d.s) || overlaps(f.Nodes, d.o)) {
			return true
		}
		for _, m := range f.Entities {
			if d.matches(IDTriple{P: m.P, O: m.O}) {
				return true
			}
		}
	}
	if len(f.Entities) == 0 {
		return false
	}
	end := span[len(span)-1].Gen
	for _, d := range span {
		d.once.Do(func() { d.named, d.namedAt = st.statementsAt(d.s) })
		if d.namedAt > end || namesMember(f.Entities, d.named) {
			return true
		}
	}
	return false
}

// namesMember reports whether one of the subjects, whose statements sts
// holds grouped, is in the set the masks define: each mask must find a
// statement of its own.
func namesMember(masks []IDTriple, sts []IDTriple) bool {
	for len(sts) > 0 {
		n := 1
		for n < len(sts) && sts[n].S == sts[0].S {
			n++
		}
		member := true
		for _, m := range masks {
			if !slices.ContainsFunc(sts[:n], func(t IDTriple) bool {
				return t.P == m.P && (m.O == 0 || t.O == m.O)
			}) {
				member = false
				break
			}
		}
		if member {
			return true
		}
		sts = sts[n:]
	}
	return false
}
