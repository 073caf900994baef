package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/snapshot"
)

// WriteSnapshot serializes the store to w in the versioned, checksummed
// snapshot format (see internal/snapshot): the full term dictionary, the
// sorted SPO index, and (format v2) the per-predicate cardinality table,
// read from the store's statistics tally.
//
// The snapshot is a consistent point-in-time image: pending deltas and
// tombstones are compacted first, then the dictionary, index, and
// cardinalities are captured under the lock and serialized outside it
// (merges never mutate a published index slice in place, so concurrent
// writers cannot corrupt the capture).
func (st *Store) WriteSnapshot(w io.Writer) error {
	st.mu.Lock()
	st.mergeLocked()
	terms := st.terms[:len(st.terms):len(st.terms)]
	spo := slices.Clip(st.index[OrderSPO])
	var stats []snapshot.PredStat
	st.tallyLocked().Predicates(func(pid ID, c PredCardinality) {
		stats = append(stats, snapshot.PredStat{
			Pred:             uint32(pid),
			Triples:          uint64(c.Triples),
			DistinctSubjects: uint64(c.DistinctSubjects),
			DistinctObjects:  uint64(c.DistinctObjects),
		})
	})
	st.mu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Pred < stats[j].Pred })

	sw, err := snapshot.NewWriter(w, len(terms)-1, len(spo))
	if err != nil {
		return err
	}
	for _, t := range terms[1:] {
		if err := sw.Term(t); err != nil {
			return err
		}
	}
	for _, e := range spo {
		if err := sw.Triple(uint32(e.S), uint32(e.P), uint32(e.O)); err != nil {
			return err
		}
	}
	if err := sw.Stats(stats); err != nil {
		return err
	}
	return sw.Close()
}

// ReadSnapshot reconstructs a store from a snapshot stream, verifying its
// checksum. The restored store answers queries identically to the one that
// wrote the snapshot; its generation restarts (non-zero iff it holds
// triples), like a freshly loaded store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	sr, err := snapshot.NewReader(r)
	if err != nil {
		return nil, err
	}
	s := New()
	numTerms := sr.NumTerms()
	numTriples := sr.NumTriples()
	// Header counts are unverified until the checksum at the end of the
	// stream, so they must not drive allocations directly: a corrupt header
	// claiming 2^60 terms would abort the process before the checksum ever
	// ran. IDs are uint32, which bounds any legitimate count; capacity
	// hints are additionally capped and grown by append, so a lying header
	// runs out of input (ErrCorrupt) instead of memory.
	const maxCount = 1<<32 - 2
	if numTerms > maxCount || numTriples > maxCount {
		return nil, fmt.Errorf("%w: header claims %d terms / %d triples", snapshot.ErrCorrupt, numTerms, numTriples)
	}
	const maxHint = 1 << 20
	s.terms = make([]rdf.Term, 1, min(numTerms+1, maxHint))
	for i := uint64(0); i < numTerms; i++ {
		t, err := sr.Term()
		if err != nil {
			return nil, err
		}
		if s.intern(t) != ID(len(s.terms)-1) {
			return nil, fmt.Errorf("%w: duplicate dictionary term %v", snapshot.ErrCorrupt, t)
		}
	}
	spo := make([]IDTriple, 0, min(numTriples, maxHint))
	var prev IDTriple
	for i := uint64(0); i < numTriples; i++ {
		sv, pv, ov, err := sr.Triple()
		if err != nil {
			return nil, err
		}
		e := IDTriple{ID(sv), ID(pv), ID(ov)}
		if e.S == 0 || uint64(e.S) > numTerms ||
			e.P == 0 || uint64(e.P) > numTerms ||
			e.O == 0 || uint64(e.O) > numTerms {
			return nil, fmt.Errorf("%w: triple %d references term outside dictionary", snapshot.ErrCorrupt, i)
		}
		if _, ok := s.terms[e.P].(rdf.IRI); !ok {
			return nil, fmt.Errorf("%w: triple %d predicate is not an IRI", snapshot.ErrCorrupt, i)
		}
		if i > 0 && !OrderSPO.Less(prev, e) {
			return nil, fmt.Errorf("%w: SPO index not strictly sorted at triple %d", snapshot.ErrCorrupt, i)
		}
		prev = e
		spo = append(spo, e)
	}
	s.index[OrderSPO] = spo
	// A v2 snapshot carries the per-predicate cardinality table. It is
	// checked, not used: the restored store builds its statistics tally on
	// first use like any other store. Close verifies the checksum over the
	// whole stream, stats included.
	stats, err := sr.Stats()
	if err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	for _, ps := range stats {
		if _, ok := s.terms[ps.Pred].(rdf.IRI); !ok {
			return nil, fmt.Errorf("%w: stats predicate %d is not an IRI", snapshot.ErrCorrupt, ps.Pred)
		}
		if ps.Triples > numTriples || ps.DistinctSubjects > ps.Triples || ps.DistinctObjects > ps.Triples {
			return nil, fmt.Errorf("%w: stats entry for predicate %d exceeds its triples", snapshot.ErrCorrupt, ps.Pred)
		}
	}

	s.rebuildDerivedLocked()
	s.size = len(spo)
	if s.size > 0 {
		// The image arrives whole: no logged batch leads up to it.
		s.gen = 1
		s.log.floor = 1
	}
	return s, nil
}

// WriteSnapshotFile atomically persists the store to path: the snapshot is
// written to a temporary file in the same directory, synced, and renamed
// over the destination, so a crash mid-write can never leave a truncated
// snapshot under the real name — readers see either the old image or the
// new one.
func (st *Store) WriteSnapshotFile(path string) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp file: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = st.WriteSnapshot(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	return nil
}

// ReadSnapshotFile reconstructs a store from a snapshot file.
func ReadSnapshotFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	// Read-only fd: close errors cannot lose data, discard explicitly.
	defer func() { _ = f.Close() }()
	return ReadSnapshot(f)
}
