package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/snapshot"
)

// WriteSnapshot serializes the store to w in the versioned, checksummed
// snapshot format (see internal/snapshot): the full term dictionary and the
// sorted SPO index.
//
// The snapshot is a consistent point-in-time image: pending deltas and
// tombstones are compacted first, then the dictionary and index are captured
// under the lock and serialized outside it (merges never mutate a published
// index slice in place, so concurrent writers cannot corrupt the capture).
func (st *Store) WriteSnapshot(w io.Writer) error {
	st.mu.Lock()
	st.mergeLocked()
	terms := st.terms[:len(st.terms):len(st.terms)]
	spo := slices.Clip(st.index[OrderSPO])
	st.mu.Unlock()

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
	return sw.Close()
}

// ReadSnapshot reconstructs a store from a snapshot stream, which it reads
// into memory whole. The image's checksum is verified before anything is
// decoded, so the checks on the dictionary and the index see a file as its
// writer wrote it: a valid checksum over a duplicate term, an out-of-range
// ID, an unsorted index or a triple AddBatch would refuse means a faulty
// writer, and the image is refused all the same. The restored store answers
// queries identically to the one that wrote the snapshot; its generation
// restarts (non-zero iff it holds triples), like a freshly loaded store.
func ReadSnapshot(r io.Reader) (*Store, error) {
	image, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return restoreSnapshot(image)
}

// restoreSnapshot is ReadSnapshot of an image already in memory.
func restoreSnapshot(image []byte) (*Store, error) {
	sr, err := snapshot.NewReader(image)
	if err != nil {
		return nil, err
	}
	s := New()
	numTerms := sr.NumTerms()
	numTriples := sr.NumTriples()
	// NewReader bounds both counts by the image's length.
	s.terms = make([]rdf.Term, 1, numTerms+1)
	for i := uint64(0); i < numTerms; i++ {
		t, err := sr.Term()
		if err != nil {
			return nil, err
		}
		if s.intern(t) != ID(len(s.terms)-1) {
			return nil, fmt.Errorf("%w: duplicate dictionary term %v", snapshot.ErrCorrupt, t)
		}
	}
	spo := make([]IDTriple, 0, numTriples)
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
		// The rule AddBatch and WAL replay apply to every triple.
		if p, ok := s.terms[e.P].(rdf.IRI); !ok || !(rdf.Triple{S: s.terms[e.S], P: p, O: s.terms[e.O]}).Valid() {
			return nil, fmt.Errorf("%w: invalid triple %d", snapshot.ErrCorrupt, i)
		}
		if i > 0 && !OrderSPO.Less(prev, e) {
			return nil, fmt.Errorf("%w: SPO index not strictly sorted at triple %d", snapshot.ErrCorrupt, i)
		}
		prev = e
		spo = append(spo, e)
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	s.index[OrderSPO] = spo

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

// ReadSnapshotFile reconstructs a store from a snapshot file, like
// ReadSnapshot.
func ReadSnapshotFile(path string) (*Store, error) {
	image, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return restoreSnapshot(image)
}
