package store

import (
	"slices"
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
)

// This file is the store's dictionary-ID scan surface: everything the SPARQL
// engine needs to run joins entirely in uint32 ID space — permutation
// selection, sorted runs (the index's own range, lent, with the tombstones
// that hide entries of it listed beside it), batch ID→term decoding — so
// terms are only materialized once per emitted solution instead of once per
// probe.

// IDTriple is one triple in dictionary-ID space: what the indexes, the delta
// buffer, the tombstone set and the change log hold and what every ID scan
// emits. With zero fields read as wildcards it is also a mask.
type IDTriple struct{ S, P, O ID }

// at returns the term at position pos.
func (t IDTriple) at(pos Position) ID {
	return [...]ID{PosS: t.S, PosP: t.P, PosO: t.O}[pos]
}

// matches reports whether the triple satisfies the mask (0 = wildcard).
func (t IDTriple) matches(m IDTriple) bool {
	return (m.S == 0 || t.S == m.S) && (m.P == 0 || t.P == m.P) && (m.O == 0 || t.O == m.O)
}

// Position names one position of a triple pattern. PosAny means "no
// preference": permutation selection then only has to cover the bound
// positions, not produce any particular result order.
type Position int8

const (
	PosAny Position = iota
	PosS
	PosP
	PosO
)

func (p Position) String() string {
	switch p {
	case PosS:
		return "S"
	case PosP:
		return "P"
	case PosO:
		return "O"
	default:
		return "any"
	}
}

// ScanOrder identifies which permutation index a scan walks; results arrive
// sorted in that permutation's (first, second, third) key order.
type ScanOrder int8

const (
	OrderSPO ScanOrder = iota
	OrderPOS
	OrderOSP
	OrderPSO
)

// permutations is the one place a permutation is written down: its key
// sequence, most significant first — the order its index (Store.index[ord])
// is sorted in and scans through it emit — and, for all but SPO, the stable
// counting pass that derives that index: SPO is ordered (s,p,o), so stably
// reordering it by o leaves ties ordered (s,p) — exactly OSP — stably
// reordering OSP by p leaves ties ordered (o,s) — exactly POS — and stably
// reordering SPO by p leaves ties ordered (s,o) — exactly PSO. compare, find
// and Less read the key; rebuildDerivedLocked reads the pass.
var permutations = [...]struct {
	name string
	key  [3]Position
	from ScanOrder // the index the pass reorders
	by   Position  // the key it reorders it by
}{
	OrderSPO: {name: "SPO", key: [3]Position{PosS, PosP, PosO}},
	OrderPOS: {name: "POS", key: [3]Position{PosP, PosO, PosS}, from: OrderOSP, by: PosP},
	OrderOSP: {name: "OSP", key: [3]Position{PosO, PosS, PosP}, from: OrderSPO, by: PosO},
	OrderPSO: {name: "PSO", key: [3]Position{PosP, PosS, PosO}, from: OrderSPO, by: PosP},
}

// derivedOrders lists the permutations derived from SPO, each after the one
// its pass reads.
var derivedOrders = [...]ScanOrder{OrderOSP, OrderPOS, OrderPSO}

func (o ScanOrder) String() string {
	if o < 0 || int(o) >= len(permutations) {
		return "?"
	}
	return permutations[o].name
}

// compare is the order's (first, second, third) key sequence as a three-way
// comparison, for slices.SortFunc (merges are on the bulk-write path).
func (o ScanOrder) compare(a, b IDTriple) int {
	for _, pos := range permutations[o].key {
		if x, y := a.at(pos), b.at(pos); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Less reports whether a sorts before b in the order's (first, second,
// third) key sequence.
func (o ScanOrder) Less(a, b IDTriple) bool { return o.compare(a, b) < 0 }

// find binary-searches idx (sorted in o) for the contiguous run of entries
// matching the mask m. The mask must be one PermutationFor can map to o —
// i.e. its bound positions are a prefix of o's key sequence: the run then
// lies between the mask itself, whose wildcards are zero and sort before
// every ID, and the mask with its wildcards raised to the largest ID.
func (o ScanOrder) find(idx []IDTriple, m IDTriple) []IDTriple {
	top := m
	for _, id := range [...]*ID{&top.S, &top.P, &top.O} {
		if *id == 0 {
			*id = ^ID(0)
		}
	}
	idx = idx[sort.Search(len(idx), func(i int) bool { return o.compare(idx[i], m) >= 0 }):]
	// A run is short next to the index it lies in (a probe's is a handful of
	// entries), so its end is looked for by doubling from its start before
	// bisecting what that brackets.
	n := 1
	for n < len(idx) && o.compare(idx[n-1], top) <= 0 {
		n *= 2
	}
	return idx[:sort.Search(min(n, len(idx)), func(i int) bool { return o.compare(idx[i], top) > 0 })]
}

// PermutationFor picks the permutation that answers a pattern with the given
// bound positions as one contiguous index range. With lead == PosAny it
// always succeeds and returns the cheapest default. A lead of PosS/PosP/PosO
// additionally requires the scan to yield results grouped and sorted by that
// (necessarily unbound) position — the property merge joins need; ok=false
// means no permutation delivers it (the two gaps are lead P with only O
// bound and lead O with only S bound, which would need OPS/SOP).
func PermutationFor(sBound, pBound, oBound bool, lead Position) (ScanOrder, bool) {
	switch lead {
	case PosS:
		if sBound {
			return 0, false
		}
		switch {
		case pBound && oBound:
			return OrderPOS, true // residual key after (p,o) prefix is s
		case pBound:
			return OrderPSO, true
		case oBound:
			return OrderOSP, true
		default:
			return OrderSPO, true
		}
	case PosP:
		if pBound {
			return 0, false
		}
		switch {
		case sBound && oBound:
			return OrderOSP, true // residual key after (o,s) prefix is p
		case sBound:
			return OrderSPO, true
		case oBound:
			return 0, false // would need OPS
		default:
			return OrderPSO, true
		}
	case PosO:
		if oBound {
			return 0, false
		}
		switch {
		case sBound && pBound:
			return OrderSPO, true
		case pBound:
			return OrderPOS, true
		case sBound:
			return 0, false // would need SOP
		default:
			return OrderOSP, true
		}
	default: // PosAny: any permutation covering the bound prefix
		switch {
		case sBound && oBound && !pBound:
			return OrderOSP, true
		case sBound:
			return OrderSPO, true
		case pBound:
			return OrderPOS, true
		case oBound:
			return OrderOSP, true
		default:
			return OrderSPO, true
		}
	}
}

// LookupTermID returns the dictionary ID for a term; ok=false means the term
// does not occur in the store, so no pattern mentioning it can match.
func (st *Store) LookupTermID(t rdf.Term) (ID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lookup(t)
}

// Terms batch-decodes IDs under one lock acquisition. Unknown IDs (including
// 0) decode to nil.
func (st *Store) Terms(ids []ID) []rdf.Term {
	out := make([]rdf.Term, len(ids))
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, id := range ids {
		if id != 0 && int(id) < len(st.terms) {
			out[i] = st.terms[id]
		}
	}
	return out
}

// rangeLocked returns the contiguous run of base-index entries covering the
// mask's bound positions, in the permutation PermutationFor picks when no
// result order is asked for — the one every ForEach* scan walks. Caller
// holds mu.
func (st *Store) rangeLocked(m IDTriple) []IDTriple {
	ord, _ := PermutationFor(m.S != 0, m.P != 0, m.O != 0, PosAny)
	return ord.find(st.index[ord], m)
}

// walkLocked is the one walk over live entries every scan is made of: it
// calls fn with the entries of base, from position pos on, and then of delta
// that match m and are not tombstoned, until fn returns false or, with
// limit > 0, limit entries have been handed over. A base found for m matches
// throughout; the delta is where the mask filters. Positions count entries
// looked at, not entries emitted: i < len(base) is base[i], anything past it
// delta[i-len(base)], which is what keeps them stable until a compaction. It
// returns the position to resume from and whether the walk is over (fn
// stopped it, or nothing is left). Caller holds mu.
func (st *Store) walkLocked(base, delta []IDTriple, m IDTriple, pos, limit int, fn func(IDTriple) bool) (next int, done bool) {
	// An empty tombstone set is the common case, and probing even an empty
	// map costs a scan of a compacted index a fifth of its time.
	tombstones := len(st.deleted) > 0
	off := 0
	for _, part := range [2][]IDTriple{base, delta} {
		for i := max(pos-off, 0); i < len(part); i++ {
			e := part[i]
			if !e.matches(m) {
				continue
			}
			if tombstones {
				if _, dead := st.deleted[e]; dead {
					continue
				}
			}
			if !fn(e) {
				return off + i + 1, true
			}
			if limit--; limit == 0 {
				return off + i + 1, false
			}
		}
		off += len(part)
	}
	return off, true
}

// appendTo returns a walkLocked callback that collects every entry in *dst.
func appendTo(dst *[]IDTriple) func(IDTriple) bool {
	return func(t IDTriple) bool {
		*dst = append(*dst, t)
		return true
	}
}

// ForEachID streams matches in ID space under one consistent read view:
// base-index matches in the default permutation's sort order first, then
// not-yet-compacted delta matches in insertion order (the same sequence
// ForEach decodes). 0 = wildcard. fn must not touch the store (the read
// lock is held throughout, see ForEach).
func (st *Store) ForEachID(s, p, o ID, fn func(IDTriple) bool) {
	m := IDTriple{s, p, o}
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.walkLocked(st.rangeLocked(m), st.delta, m, 0, 0, fn)
}

// EstimateCountIDs sizes a mask (0 = wildcard) without scanning it: the
// base-index range (one O(log n) binary search) plus the delta entries that
// match, minus the tombstones that do. Delta and tombstone sets are both
// compaction-bounded, so the two linear passes are O(1) in practice. The
// planner orders joins by it and the executor chooses between merge-joining
// a range and probing per row.
//
// Every tombstone shadows exactly one entry counted by the base range or the
// delta pass (Delete only tombstones live triples, and a triple is never in
// both base and delta), so subtracting the matching tombstones makes the
// estimate exact up to in-flight mutations — without it, a delete-churned
// predicate looks as big as it was before the churn until the next
// compaction, and the planner picks probe joins and join orders sized for
// data that is no longer there.
func (st *Store) EstimateCountIDs(s, p, o ID) int {
	m := IDTriple{s, p, o}
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := len(st.rangeLocked(m))
	for _, e := range st.delta {
		if e.matches(m) {
			n++
		}
	}
	for e := range st.deleted {
		if e.matches(m) {
			n--
		}
	}
	return max(n, 0)
}

// IDRun is one ID-space scan, taken under one read lock: the base-index
// matches sorted in Order, the tombstoned ones among them (Dead, a sorted
// subsequence of Sorted), then the not-yet-compacted live delta matches in
// insertion order. ForEach reproduces exactly the sequence ForEachID emits
// for the same pattern at the moment the run was taken.
//
// A run is read-only and holds still. Sorted is the index's own range, lent
// rather than copied (see ScanIDs): writing to it would change what every
// other reader of the store sees. It is clipped, so an append copies
// instead. Dead and Tail are the run's own.
type IDRun struct {
	Sorted []IDTriple
	Dead   []IDTriple
	Tail   []IDTriple
	Order  ScanOrder
}

// ScanIDs takes the matches for a bound mask (0 = wildcard) through the
// permutation PermutationFor selects for lead; ok=false means no
// permutation yields the requested lead order and the caller must probe
// instead.
//
// Under one read lock it lends the index range as Sorted, lists the
// tombstones that fall in it as Dead, and copies the live delta matches as
// Tail; no scan ever copies the range. The store never writes to an index it
// has installed — compaction, bulk loads and snapshot restore install
// freshly allocated ones — and the run's Dead and Tail are copies, so the
// run reads one fixed state of the store however it is written meanwhile,
// and needs no lock while it is read. The price is that it keeps the index
// it was cut from alive until the run is dropped, though the store may have
// replaced that index since.
func (st *Store) ScanIDs(s, p, o ID, lead Position) (IDRun, bool) {
	ord, ok := PermutationFor(s != 0, p != 0, o != 0, lead)
	if !ok {
		return IDRun{}, false
	}
	m := IDTriple{s, p, o}
	run := IDRun{Order: ord}
	st.mu.RLock()
	// An empty run lends nothing, so it pins no index.
	if base := ord.find(st.index[ord], m); len(base) > 0 {
		run.Sorted = slices.Clip(base)
		run.Dead = st.deadLocked(base, ord, m)
	}
	st.walkLocked(nil, st.delta, m, 0, 0, appendTo(&run.Tail))
	st.mu.RUnlock()
	st.scanRuns.Add(1)
	return run, true
}

// deadLocked returns the tombstoned entries of base, the range of the ord
// index that matches m, sorted in ord. It takes whichever is shorter:
// probing the range against the tombstones, or filtering the tombstones by
// the mask and looking each up in the range (a tombstone may shadow a delta
// entry instead). Caller holds mu.
func (st *Store) deadLocked(base []IDTriple, ord ScanOrder, m IDTriple) []IDTriple {
	var dead []IDTriple
	if len(base) <= len(st.deleted) {
		for _, e := range base {
			if _, ok := st.deleted[e]; ok {
				dead = append(dead, e)
			}
		}
		return dead
	}
	for e := range st.deleted {
		if e.matches(m) && len(ord.find(base, e)) > 0 {
			dead = append(dead, e)
		}
	}
	slices.SortFunc(dead, ord.compare)
	return dead
}

// ForEachIDPage streams up to max matching triples in ID space to fn,
// starting at scan position pos (0 starts a new scan), and returns the
// position the next page should resume from plus whether the scan is
// exhausted. The read lock is held only for one page. The cursor is
// positional over the PosAny permutation for the bound mask: positions in
// the base index are stable until a compaction, so a caller must watch
// LayoutEpoch between pages and restart when it moves (delta appends don't
// shift the base, and the delta itself is append-only between compactions);
// a paged scan observes the live store rather than one state of it. fn
// returning false ends the scan (done=true). max < 1 returns immediately
// with done=false. Nothing in the server pages the store — the query driver
// and the exploration walks read ScanIDs runs — so this and ForEachPage are
// kept for the benchmark harness's traced source and the tests.
func (st *Store) ForEachIDPage(s, p, o ID, pos, max int, fn func(IDTriple) bool) (next int, done bool) {
	if max < 1 {
		return pos, false
	}
	m := IDTriple{s, p, o}
	st.scanPages.Add(1)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.walkLocked(st.rangeLocked(m), st.delta, m, pos, max, fn)
}

// ForEach calls fn with the run's live entries in scan order — Sorted
// without Dead, then Tail — until fn returns false; it reports whether the
// whole run was visited.
func (r IDRun) ForEach(fn func(IDTriple) bool) bool {
	if !r.merge(nil, fn) {
		return false
	}
	for _, e := range r.Tail {
		if !fn(e) {
			return false
		}
	}
	return true
}

// ForEachSorted streams the run's live entries in full Order-sorted
// sequence: the delta tail (captured in insertion order) is sorted and
// merged into the live base matches on the fly, so span-counting consumers
// see one globally grouped sequence even before the next compaction folds
// the delta in. Iteration stops early when fn returns false; the return
// value reports whether the full run was visited.
func (r IDRun) ForEachSorted(fn func(IDTriple) bool) bool {
	tail := r.Tail
	if len(tail) > 1 {
		tail = slices.Clone(tail)
		slices.SortFunc(tail, r.Order.compare)
	}
	return r.merge(tail, fn)
}

// merge calls fn with the live entries of Sorted — Dead skipped by walking
// both in step — and those of tail, which is sorted in Order, interleaved in
// Order; ties go to Sorted first.
func (r IDRun) merge(tail []IDTriple, fn func(IDTriple) bool) bool {
	dead := r.Dead
	for _, e := range r.Sorted {
		if len(dead) > 0 && dead[0] == e {
			dead = dead[1:]
			continue
		}
		for ; len(tail) > 0 && r.Order.Less(tail[0], e); tail = tail[1:] {
			if !fn(tail[0]) {
				return false
			}
		}
		if !fn(e) {
			return false
		}
	}
	for _, e := range tail {
		if !fn(e) {
			return false
		}
	}
	return true
}
