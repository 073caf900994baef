package store

import "slices"

// Change log. Everything derived from the store — a keyword index, a cached
// view, a feed to a follower — used to learn of a write only as "the
// generation moved" and rebuild from a full scan. The store already computes
// exactly what each write changed (the effective sub-batch it hands the
// WAL), so it keeps the most recent of those in memory: a consumer that
// remembers the generation it last saw asks ChangesSince for the batches in
// between and touches only what they name. The log is bounded, always on,
// and costs a write one slice header: the batches are the ones the write
// path allocated anyway.

// changeLogBudget bounds the triples the change log retains (12 bytes each,
// so under a megabyte). A consumer further behind than this does a full
// rebuild, which by then is the cheaper way to catch up.
const changeLogBudget = 1 << 16

// Change is one effective mutation batch: the triples that actually entered
// (or, with Delete, left) the live set, and the generation that doing so
// produced. No-op batches produce neither a generation nor a Change.
type Change struct {
	Gen     uint64
	Delete  bool
	Triples []IDTriple
}

// changeLog retains the newest effective batches, oldest first. Generations
// are consecutive: entries[i].gen == floor+1+i.
type changeLog struct {
	entries []logEntry
	triples int // sum of len(entries[i].triples)
	// floor is the newest generation the log no longer (or never) covered:
	// the batches that led up to it were dropped, or predate the log (a
	// store restored from a snapshot starts mid-history).
	floor uint64
}

type logEntry struct {
	gen     uint64
	del     bool
	triples []enc
}

// commitLocked publishes an applied, effective batch: it advances the
// generation, invalidates what is cached per generation inside the store,
// and logs the batch under the new generation — log order is apply order.
// The log keeps the slice, so the caller must not modify it afterwards.
// Caller holds mu.
func (st *Store) commitLocked(del bool, triples []enc) {
	st.gen++
	st.cards = nil
	l := &st.log
	l.entries = append(l.entries, logEntry{st.gen, del, triples})
	l.triples += len(triples)
	drop := 0
	for l.triples > changeLogBudget {
		l.triples -= len(l.entries[drop].triples)
		l.floor = l.entries[drop].gen
		l.entries[drop] = logEntry{} // release the batch
		drop++
	}
	l.entries = l.entries[drop:]
}

// ChangesSince returns, in apply order, the effective batches that took the
// store from generation gen to its current one, which it also returns. ok is
// false when the log cannot vouch for that span — it was overrun (more than
// changeLogBudget triples changed since gen, or one batch alone exceeds it),
// the store was restored from a snapshot taken after gen, or gen is not a
// generation this store has reached — and the caller must rebuild from a
// scan. With ok true and no changes, the caller is up to date.
func (st *Store) ChangesSince(gen uint64) (changes []Change, now uint64, ok bool) {
	st.mu.RLock()
	now = st.gen
	if gen < st.log.floor || gen > now {
		st.mu.RUnlock()
		return nil, now, false
	}
	// Logged batches are immutable but the entry slots are reused, so the
	// headers are copied under the lock and the triples converted outside it.
	pending := slices.Clone(st.log.entries[gen-st.log.floor:])
	st.mu.RUnlock()
	if len(pending) == 0 {
		return nil, now, true
	}
	changes = make([]Change, len(pending))
	for i, e := range pending {
		ts := make([]IDTriple, len(e.triples))
		for j, t := range e.triples {
			ts[j] = IDTriple{t.s, t.p, t.o}
		}
		changes[i] = Change{Gen: e.gen, Delete: e.del, Triples: ts}
	}
	return changes, now, true
}

// Statements returns the live triples of the given subjects — of every
// subject when none is given — sorted by (S, P, O): the read a follower of
// ChangesSince makes to see the subjects a change named as they are now.
// The order depends only on the triples, not on how they are spread over
// the base index and the delta buffer. All subjects are served under one
// hold of the read lock, by one index probe each and a single pass over the
// delta; the sort happens after the lock is released.
func (st *Store) Statements(subjects ...ID) []IDTriple {
	out, _ := st.statementsAt(subjects)
	return out
}

// statementsAt is Statements, with the generation the read was made at.
func (st *Store) statementsAt(subjects []ID) ([]IDTriple, uint64) {
	var out []IDTriple
	keep := func(e enc) bool {
		out = append(out, IDTriple{e.s, e.p, e.o})
		return true
	}
	st.mu.RLock()
	gen := st.gen
	if len(subjects) == 0 {
		out = make([]IDTriple, 0, st.size)
		st.forEachIDLocked(0, 0, 0, keep)
	} else {
		want := make(map[ID]struct{}, len(subjects))
		for _, s := range subjects {
			if _, dup := want[s]; dup {
				continue
			}
			want[s] = struct{}{}
			lo, hi := rangeSPO(st.spo, s, 0, 0)
			for _, e := range st.spo[lo:hi] {
				if _, dead := st.deleted[e]; !dead {
					keep(e)
				}
			}
		}
		for _, e := range st.delta {
			if _, ok := want[e.s]; !ok {
				continue
			}
			if _, dead := st.deleted[e]; !dead {
				keep(e)
			}
		}
	}
	st.mu.RUnlock()
	slices.SortFunc(out, func(a, b IDTriple) int {
		return cmpSPO(enc{a.S, a.P, a.O}, enc{b.S, b.P, b.O})
	})
	return out, gen
}
