package store

import "slices"

// Change log. Everything derived from the store — a cached response, the
// sorted values under a hierarchy, the typed subjects facet sessions start
// from, the keyword index — asks one question when the generation has moved:
// did a write since touch what I read? The store already computes exactly
// what each write changed (the effective sub-batch it hands the WAL), so it
// keeps the most recent of those in memory, each under the generation it
// produced, and that is the one place the question is answered. A follower that remembers a generation asks DigestsSince for
// the batches in between, as Digests: the sorted sets a Footprint is tested
// against (TouchedBy) and the subjects to revisit (Digest.Subjects). A digest
// is built once, by the first follower that reaches it and outside the store
// lock, and every follower after shares it. The log is bounded and always on,
// and costs a write one small struct and no digest work: the batches are the
// ones the write path allocated anyway.

// changeLogBudget bounds the triples the change log retains (12 bytes each,
// so under a megabyte, plus the digests built from them). A follower further
// behind than this does a full rebuild, which by then is the cheaper way to
// catch up.
const changeLogBudget = 1 << 16

// changeLog retains the newest effective batches, oldest first. Generations
// are consecutive: entries[i].Gen == floor+1+i.
type changeLog struct {
	entries []*Digest
	triples int // sum of len(entries[i].triples)
	// floor is the newest generation the log no longer (or never) covered:
	// the batches that led up to it were dropped, or predate the log (a
	// store restored from a snapshot starts mid-history).
	floor uint64
}

// commitLocked publishes an applied, effective batch: it advances the
// generation, counts the batch into the statistics tally, and logs it under
// the new generation — log order is apply order. The log keeps the slice,
// so the caller must not modify it afterwards. Caller holds mu.
func (st *Store) commitLocked(del bool, triples []IDTriple) {
	st.gen++
	st.countLocked(del, triples)
	l := &st.log
	l.entries = append(l.entries, &Digest{Gen: st.gen, del: del, triples: triples})
	l.triples += len(triples)
	drop := 0
	for l.triples > changeLogBudget {
		l.triples -= len(l.entries[drop].triples)
		l.floor = l.entries[drop].Gen
		l.entries[drop] = nil // release the batch
		drop++
	}
	l.entries = l.entries[drop:]
}

// DigestsSince returns, in apply order, the digests of the effective batches
// that took the store from generation gen to its current one, which it also
// returns. ok is false when the log cannot vouch for that span — it was
// overrun (more than changeLogBudget triples changed since gen, or one batch
// alone exceeds it), the store was restored from a snapshot taken after gen,
// or gen is not a generation this store has reached — and the caller must
// rebuild from a scan. With ok true and an empty span, the caller is up to
// date.
//
// The digests are the log's own, shared with every other caller, and built
// by the first caller to reach each one: read them, never modify them.
func (st *Store) DigestsSince(gen uint64) (span []*Digest, now uint64, ok bool) {
	st.mu.RLock()
	now = st.gen
	if gen < st.log.floor || gen > now {
		st.mu.RUnlock()
		return nil, now, false
	}
	// The entry slots are reused as the log moves on, so the pointers are
	// copied under the lock; the digests are built outside it.
	span = slices.Clone(st.log.entries[gen-st.log.floor:])
	st.mu.RUnlock()
	for _, d := range span {
		d.build()
	}
	return span, now, true
}

// Statements returns the live triples of the given subjects — of every
// subject when none is given — sorted by (S, P, O): the read a follower of
// DigestsSince makes to see the subjects a change named as they are now.
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
	st.mu.RLock()
	gen := st.gen
	if len(subjects) == 0 {
		out = make([]IDTriple, 0, st.size)
		st.walkLocked(st.index[OrderSPO], st.delta, IDTriple{}, 0, 0, appendTo(&out))
	} else {
		want := make(map[ID]struct{}, len(subjects))
		for _, s := range subjects {
			if _, dup := want[s]; dup {
				continue
			}
			want[s] = struct{}{}
			m := IDTriple{S: s}
			st.walkLocked(OrderSPO.find(st.index[OrderSPO], m), nil, m, 0, 0, appendTo(&out))
		}
		st.walkLocked(nil, st.delta, IDTriple{}, 0, 0, func(e IDTriple) bool {
			if _, ok := want[e.S]; ok {
				out = append(out, e)
			}
			return true
		})
	}
	st.mu.RUnlock()
	slices.SortFunc(out, OrderSPO.compare)
	return out, gen
}
