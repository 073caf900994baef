// Package store implements the lodviz triple store: a dictionary-encoded,
// in-memory RDF store with four sorted permutation indexes (SPO, POS, OSP,
// PSO) answering any triple pattern with at most one binary-searched range
// scan, and — through the ID-space scan API in idscan.go — serving sorted
// uint32 runs the SPARQL engine merge-joins without decoding terms.
//
// What runs on the store sees it as Source (source.go): ten ID-space
// methods. Those are the primitives — LookupTermID and Terms between terms
// and IDs; ForEachID (one read view), ForEachIDPage (resumable, one lock hold
// a page) and ScanIDs (a sorted run, read-only: with no tombstones it is the
// index's own range, lent, not copied) to scan; EstimateCountIDs and
// Cardinalities to plan; Generation and LayoutEpoch to know what moved. The
// term-space calls (ForEach, ForEachPage, Match, Count, Triples, Contains)
// are sugar: each resolves its pattern's constants, runs the ID scan and
// decodes, under the same single lock hold.
//
// Inside, each thing is said once. One type, IDTriple, is what the indexes,
// the delta buffer, the tombstone set and the change log hold and what the
// ID scans emit (with zero fields read as wildcards it is also every mask).
// One table, permutations (idscan.go), writes down each permutation's key
// sequence and the counting pass that derives its index from another; the
// one comparator (ScanOrder.compare, exported as Less), the one range finder
// (ScanOrder.find) and the index rebuild read it, and nothing else switches
// on a ScanOrder. One walk, walkLocked, is "the live entries of a base range
// from a position on, then the matching live entries of the delta, at most
// so many": every scan entry point, Statements, the statistics tally's one
// build and the compaction copy are calls of it, so the tombstone check and
// the positional cursor exist in one place. The one scan that skips it is a
// ScanIDs run with no tombstone to check, which lends the range instead:
// an installed index array is never written (writes install new ones and
// bump the layout epoch), so a range cut from it holds still for as long as
// a reader keeps it — and keeps that array alive as long.
//
// The survey's "large & dynamic data" challenge (Section 2) rules out a
// heavyweight preprocessing phase, so the store is built for incremental
// ingestion: inserts land in an unsorted delta buffer that is merged into the
// sorted base lazily, once it grows past a fraction of the base — the same
// amortization idea as LSM-style stores, kept single-node and in-memory.
// The same requirement extends to what is derived from the store: each
// effective write is retained in a bounded change log (changelog.go) under
// the generation it produced, so an index or view that remembers a
// generation asks DigestsSince whether a write since touched what it read,
// and which subjects to revisit, instead of rescanning — the response cache,
// the hierarchy bases, the facet sessions' typed-subject base and the keyword
// index all share the one digest of each batch; the dataset statistics are
// counted from the same batches by the store itself (stats.go), so no summary
// read costs a scan after a write.
package store

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/lodviz/lodviz/internal/ntriples"
	"github.com/lodviz/lodviz/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense and start at 1;
// 0 is reserved as "no term".
type ID uint32

// Bits exposes the ID's raw dictionary slot as a plain integer for hashing
// and map-key material. Outside this package an ID is a name, not a number
// (the idspace analyzer rejects raw conversions and arithmetic); Bits and
// PackPair are the sanctioned escape hatches, and they carry no ordering or
// density guarantees beyond "equal IDs produce equal bits".
func (id ID) Bits() uint64 { return uint64(id) }

// PackPair packs two IDs into a single comparable value, for pair-keyed
// maps and sets. The packing is injective but otherwise opaque: callers
// must not unpack or compare packed values for order.
func PackPair(a, b ID) uint64 { return uint64(a)<<32 | uint64(b) }

// Store is an in-memory, concurrency-safe triple store.
//
// The zero value is not usable; call New.
type Store struct {
	mu    sync.RWMutex
	dict  termTable  // term → ID (dict.go)
	terms []rdf.Term // ID → term (terms[0] unused)

	// index holds the base indexes, one per ScanOrder, each sorted in its
	// permutation's key order (see permutations in idscan.go). PSO exists
	// for merge joins: a bound-predicate pattern scanned through it yields
	// subjects in sorted order, so a join on the subject variable against
	// an already-sorted binding column is a linear merge instead of
	// per-binding probes — the star-join shape of faceted exploration.
	index [len(permutations)][]IDTriple
	// delta holds recently inserted triples not yet merged, unsorted.
	delta []IDTriple
	// deleted tombstones triples awaiting physical removal on merge.
	deleted map[IDTriple]struct{}

	size int // live triple count

	// gen counts content mutations: it advances exactly when the set of
	// live triples changes (insert, undelete, delete), never on merges or
	// duplicate inserts. External caches key results by generation so a
	// write observably invalidates everything derived from older state.
	gen uint64

	// log retains the newest effective batches with the generation each
	// produced (see changelog.go), so derived structures can follow writes
	// incrementally instead of rebuilding per generation.
	log changeLog

	// layout counts physical index reshuffles: delta compaction and bulk
	// index rebuilds, the events that invalidate ForEachPage's positional
	// cursors. Delta appends and tombstone deletes leave existing
	// positions intact and do not advance it.
	layout uint64

	// tally is the statistics tally (stats.go), nil until first asked for;
	// tallyBuilds counts the walks that built it.
	tally       *StatsAccumulator
	tallyBuilds uint64

	// wal, when set via SetWAL, receives every effective mutation before it
	// is applied (see walsink.go for the ordering contract).
	wal WALSink

	// scanPages counts paged-scan calls (ForEachPage/ForEachIDPage), and
	// scanRunsLent and scanRunsCopied the ScanIDs runs that lent an index
	// range or copied it, for the observability snapshot; atomic so scans
	// don't write under the read lock's shared hold.
	scanPages                    atomic.Uint64
	scanRunsLent, scanRunsCopied atomic.Uint64
}

// New returns an empty store.
func New() *Store {
	return &Store{
		dict:    newTermTable(),
		terms:   make([]rdf.Term, 1),
		deleted: make(map[IDTriple]struct{}),
	}
}

// Load creates a store from a slice of triples. It is AddBatch on a fresh
// store plus an eager compaction, so the result starts with a fully sorted
// base and an empty delta. The generation advances only if the input holds
// at least one live triple: loading nothing leaves it at zero.
func Load(triples []rdf.Triple) (*Store, error) {
	s := New()
	if _, err := s.AddBatch(triples); err != nil {
		return nil, err
	}
	s.Compact()
	return s, nil
}

// LoadNTriples streams an N-Triples document into a fresh store in bounded
// chunks: each decoder chunk is batch-inserted as it arrives, so inputs far
// larger than any single allocation load without materializing the whole
// parse at once.
func LoadNTriples(r io.Reader) (*Store, error) {
	s := New()
	if err := ntriples.NewDecoder(r).DecodeAll(func(chunk []rdf.Triple) error {
		_, err := s.AddBatch(chunk)
		return err
	}); err != nil {
		return nil, err
	}
	s.Compact()
	return s, nil
}

// Generation returns the store's content generation: a counter that advances
// on every mutation of the live triple set. Two calls returning the same
// value bracket a window in which no write changed query-visible state, so
// any result computed against the store inside that window is still valid.
func (st *Store) Generation() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gen
}

// LayoutEpoch returns the store's index-layout epoch: a counter that
// advances whenever physical scan positions are reshuffled (delta
// compaction, bulk index rebuilds). A paged scan (ForEachPage) whose
// cursor spans two different epochs may have skipped or repeated triples;
// callers compare epochs across pages and restart or abort on a change.
// Plain appends and tombstone deletes do not advance it.
func (st *Store) LayoutEpoch() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.layout
}

// intern returns the ID for t, creating one if needed. Caller holds mu.
func (st *Store) intern(t rdf.Term) ID {
	tag := st.dict.tag(t)
	id, slot := st.dict.find(st.terms, t, tag)
	if id != 0 {
		return id
	}
	id = ID(len(st.terms))
	st.terms = append(st.terms, t)
	st.dict.put(slot, tag, id)
	return id
}

// lookup returns the ID for t without creating one.
func (st *Store) lookup(t rdf.Term) (ID, bool) {
	id, _ := st.dict.find(st.terms, t, st.dict.tag(t))
	return id, id != 0
}

// encodeLocked resolves a batch to ID triples in input order: interning its
// terms when create is set, otherwise dropping every triple that names a
// term the dictionary lacks (it cannot be in the store). Predicates repeat
// heavily within a batch, so their IDs are remembered by the concrete IRI
// type, which also spares boxing each one into an interface per triple; and
// N-Triples dumps group statements by subject, so remembering the previous
// subject skips most subject lookups. Caller holds mu.
func (st *Store) encodeLocked(triples []rdf.Triple, create bool) []IDTriple {
	resolve := func(t rdf.Term) ID {
		if create {
			return st.intern(t)
		}
		id, _ := st.lookup(t)
		return id
	}
	out := make([]IDTriple, 0, len(triples))
	pids := make(map[rdf.IRI]ID) // no size hint: a map of up to 8 stays on the stack
	var lastS rdf.Term
	var lastSID ID
	for _, t := range triples {
		pid, ok := pids[t.P]
		if !ok {
			// The IRI boxed for the lookup stays on the stack; only the one
			// interned is kept, so only that one is allocated.
			if pid, _ = st.lookup(rdf.Term(t.P)); pid == 0 && create {
				pid = st.intern(rdf.Term(t.P))
			}
			pids[t.P] = pid
		}
		if lastS == nil || t.S != lastS {
			lastS, lastSID = t.S, resolve(t.S)
		}
		if pid == 0 || lastSID == 0 {
			continue
		}
		if oid := resolve(t.O); oid != 0 {
			out = append(out, IDTriple{lastSID, pid, oid})
		}
	}
	return out
}

// Term returns the term for a dictionary ID.
func (st *Store) Term(id ID) (rdf.Term, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if id == 0 || int(id) >= len(st.terms) {
		return nil, false
	}
	return st.terms[id], true
}

// Add inserts one triple. Duplicate inserts are idempotent. It is AddBatch
// on a single-element batch and shares its WAL semantics.
func (st *Store) Add(t rdf.Triple) error {
	_, err := st.AddBatch([]rdf.Triple{t})
	return err
}

// AddAll inserts a batch of triples atomically; see AddBatch.
func (st *Store) AddAll(triples []rdf.Triple) error {
	_, err := st.AddBatch(triples)
	return err
}

// AddBatch inserts a batch of triples under a single lock acquisition and
// returns how many of them changed the live triple set (new inserts plus
// undeletes; duplicates count zero).
//
// The batch is applied atomically: every triple is validated before the
// store is touched, so an error means the store — contents, size, and
// generation — is exactly as it was. A batch that does change the live set
// advances the generation exactly once, however large it is, so whatever
// follows the generation or the change log sees one change per batch rather
// than one per triple.
//
// Unlike a loop over Add (which pays a lock round-trip and an O(|delta|)
// duplicate scan per triple), AddBatch interns all terms, sorts and
// in-batch-deduplicates the encoded triples, and set-differences them
// against the base index (one binary search each) and the delta buffer (one
// map build) — O(n log n) for the whole batch.
//
// With a WAL attached (SetWAL), the effective subset of the batch — the
// triples that actually change the live set — is appended to the log before
// being applied, and AddBatch does not return success until the record is
// fsynced. A WAL append error leaves the live set untouched (only dictionary
// interning may have grown, which is not query-visible); a sync error means
// the mutation is applied in memory but its durability is unknown — the
// error is returned and the caller must treat the write as failed.
func (st *Store) AddBatch(triples []rdf.Triple) (int, error) {
	for i, t := range triples {
		if !t.Valid() {
			return 0, fmt.Errorf("store: invalid triple at index %d: %v", i, t)
		}
	}
	if len(triples) == 0 {
		return 0, nil
	}
	st.mu.Lock()
	added, seq, err := st.addBatchLocked(triples)
	sink := st.wal
	st.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// Group commit happens out here: the fsync is outside the store lock, so
	// concurrent committers pile up behind one disk flush without blocking
	// readers or each other's in-memory work.
	if sink != nil && seq > 0 {
		if err := sink.Sync(seq); err != nil {
			return added, fmt.Errorf("store: wal sync: %w", err)
		}
	}
	return added, nil
}

// addBatchLocked plans, logs, and applies one insert batch. It returns the
// number of live-set changes and the WAL sequence to sync (0 when nothing
// changed or no WAL is attached). Caller holds mu.
func (st *Store) addBatchLocked(triples []rdf.Triple) (int, uint64, error) {
	batch := st.sortSPOLocked(st.encodeLocked(triples, true))
	batch = slices.Compact(batch)

	// Bulk load into an empty store: the sorted, deduplicated batch IS the
	// final SPO index — skip the per-element membership checks and the
	// rebuild-everything merge.
	if len(st.index[OrderSPO]) == 0 && len(st.delta) == 0 && len(st.deleted) == 0 {
		seq, err := st.walAppendLocked(false, batch)
		if err != nil {
			return 0, 0, err
		}
		st.index[OrderSPO] = batch
		st.rebuildDerivedLocked()
		st.size = len(batch)
		st.layout++
		if st.size > 0 {
			st.commitLocked(false, batch)
		}
		return st.size, seq, nil
	}

	inDelta := make(map[IDTriple]struct{}, len(st.delta))
	for _, e := range st.delta {
		inDelta[e] = struct{}{}
	}

	// Plan first, mutate after: the WAL record must hold exactly the
	// effective subset, and a failed append must leave the live set as it
	// was — so nothing is touched until the record is in the log.
	effective := make([]IDTriple, 0, len(batch))
	for _, e := range batch {
		if _, dead := st.deleted[e]; dead {
			effective = append(effective, e)
			continue
		}
		if _, pending := inDelta[e]; pending {
			continue
		}
		if len(OrderSPO.find(st.index[OrderSPO], e)) > 0 {
			continue
		}
		effective = append(effective, e)
	}
	if len(effective) == 0 {
		return 0, 0, nil
	}
	seq, err := st.walAppendLocked(false, effective)
	if err != nil {
		return 0, 0, err
	}

	for _, e := range effective {
		if _, dead := st.deleted[e]; dead {
			delete(st.deleted, e)
			st.size++
			continue
		}
		st.delta = append(st.delta, e)
		st.size++
	}
	st.commitLocked(false, effective)
	if len(st.delta) > 1024 && len(st.delta) > len(st.index[OrderSPO])/8 {
		st.mergeLocked()
	}
	return len(effective), seq, nil
}

// Delete removes a triple; it reports whether the triple was present. It is
// DeleteBatch on a single-element batch; callers that need the WAL error use
// DeleteBatch directly.
func (st *Store) Delete(t rdf.Triple) bool {
	n, _ := st.DeleteBatch([]rdf.Triple{t})
	return n == 1
}

// DeleteBatch removes a batch of triples under a single lock acquisition and
// returns how many of them were present (and are now gone). Triples the
// store does not hold are skipped. With a WAL attached, the present subset
// is appended to the log before the tombstones are written, with the same
// durability contract as AddBatch.
func (st *Store) DeleteBatch(triples []rdf.Triple) (int, error) {
	if len(triples) == 0 {
		return 0, nil
	}
	st.mu.Lock()
	removed, seq, err := st.deleteBatchLocked(triples)
	sink := st.wal
	st.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if sink != nil && seq > 0 {
		if err := sink.Sync(seq); err != nil {
			return removed, fmt.Errorf("store: wal sync: %w", err)
		}
	}
	return removed, nil
}

// deleteBatchLocked plans, logs, and applies one delete batch; the
// plan/log/apply split mirrors addBatchLocked. Caller holds mu.
func (st *Store) deleteBatchLocked(triples []rdf.Triple) (int, uint64, error) {
	seen := make(map[IDTriple]struct{}, len(triples))
	encoded := st.encodeLocked(triples, false)
	present := encoded[:0]
	for _, e := range encoded {
		if _, dup := seen[e]; dup {
			continue
		}
		if !st.containsLocked(e) {
			continue
		}
		seen[e] = struct{}{}
		present = append(present, e)
	}
	if len(present) == 0 {
		return 0, 0, nil
	}
	seq, err := st.walAppendLocked(true, present)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range present {
		st.deleted[e] = struct{}{}
		st.size--
	}
	st.commitLocked(true, present)
	if len(st.deleted) > 1024 && len(st.deleted) > len(st.index[OrderSPO])/8 {
		st.mergeLocked()
	}
	return len(present), seq, nil
}

// containsLocked reports whether e is live in base or delta.
func (st *Store) containsLocked(e IDTriple) bool {
	if _, dead := st.deleted[e]; dead {
		return false
	}
	return len(OrderSPO.find(st.index[OrderSPO], e)) > 0 || slices.Contains(st.delta, e)
}

// Contains reports whether the store holds the given triple.
func (st *Store) Contains(t rdf.Triple) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sid, ok1 := st.lookup(t.S)
	pid, ok2 := st.lookup(rdf.Term(t.P))
	oid, ok3 := st.lookup(t.O)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	return st.containsLocked(IDTriple{sid, pid, oid})
}

// Len returns the number of live triples.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.size
}

// NumTerms returns the dictionary size.
func (st *Store) NumTerms() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.terms) - 1
}

// Compact forces the pending delta and tombstones to be merged into the
// sorted base indexes.
func (st *Store) Compact() {
	st.mu.Lock()
	st.mergeLocked()
	st.mu.Unlock()
}

// mergeLocked folds delta into the base indexes and drops tombstones.
func (st *Store) mergeLocked() {
	if len(st.delta) == 0 && len(st.deleted) == 0 {
		return
	}
	live := make([]IDTriple, 0, len(st.index[OrderSPO])+len(st.delta))
	st.walkLocked(st.index[OrderSPO], st.delta, IDTriple{}, 0, 0, appendTo(&live))
	st.delta = nil
	st.deleted = make(map[IDTriple]struct{})

	st.index[OrderSPO] = slices.Compact(st.sortSPOLocked(live))
	st.rebuildDerivedLocked()
	st.size = len(st.index[OrderSPO])
	st.layout++
}

// sortSPOLocked sorts entries into (s,p,o) order. Large inputs go through
// three stable counting passes, least significant key first — O(n + |dict|),
// no comparisons — which is what makes bulk ingestion cheap; small inputs
// fall back to a comparison sort so a trickle insert into a huge dictionary
// doesn't pay for dictionary-sized counting arrays. The returned slice may
// use different backing storage than the input.
func (st *Store) sortSPOLocked(in []IDTriple) []IDTriple {
	if len(in) < len(st.terms)/4 {
		slices.SortFunc(in, OrderSPO.compare)
		return in
	}
	src, dst := in, make([]IDTriple, len(in))
	counts := make([]uint32, len(st.terms))
	key := permutations[OrderSPO].key
	for i := len(key) - 1; i >= 0; i-- {
		clear(counts)
		countingPass(src, dst, counts, key[i])
		src, dst = dst, src
	}
	return src
}

// rebuildDerivedLocked derives the other indexes from a sorted, deduplicated
// SPO index, each by the one stable counting pass its permutations entry
// names — no comparisons. Small indexes with outsized dictionaries fall back
// to comparison sorts.
func (st *Store) rebuildDerivedLocked() {
	spo := st.index[OrderSPO]
	small := len(spo) < len(st.terms)/4
	var counts []uint32
	if !small {
		counts = make([]uint32, len(st.terms))
	}
	for _, ord := range derivedOrders {
		idx := make([]IDTriple, len(spo))
		if small {
			copy(idx, spo)
			slices.SortFunc(idx, ord.compare)
		} else {
			clear(counts)
			countingPass(st.index[permutations[ord].from], idx, counts, permutations[ord].by)
		}
		st.index[ord] = idx
	}
}

// countingPass stably reorders src into dst by the term at position key.
// counts must be zeroed and sized past the largest ID; it is left dirty.
func countingPass(src, dst []IDTriple, counts []uint32, key Position) {
	for _, e := range src {
		counts[e.at(key)]++
	}
	sum := uint32(0)
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	for _, e := range src {
		k := e.at(key)
		dst[counts[k]] = e
		counts[k]++
	}
}
