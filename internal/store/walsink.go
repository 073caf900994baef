package store

import (
	"fmt"

	"github.com/lodviz/lodviz/internal/rdf"
)

// WALSink is the store's view of a write-ahead log. *wal.Log satisfies it;
// the indirection keeps the store free of a package dependency and lets
// tests inject failing or recording sinks.
//
// Ordering contract: the store calls AppendAdd/AppendDelete while holding
// its write lock, immediately before applying the same triples — so log
// order and apply order are identical, and replaying the log over any
// earlier state reproduces the live set. Sync is called after the lock is
// released (group commit batches concurrent committers there), and the
// store does not report a mutation as successful until Sync returns.
type WALSink interface {
	// AppendAdd logs a batch of inserted triples and returns its sequence.
	AppendAdd(triples []rdf.Triple) (uint64, error)
	// AppendDelete logs a batch of deleted triples and returns its sequence.
	AppendDelete(triples []rdf.Triple) (uint64, error)
	// Sync blocks until every record up to seq is durable.
	Sync(seq uint64) error
}

// SetWAL attaches (or, with nil, detaches) a write-ahead log. Attach it
// after replaying an existing log into the store and before accepting
// writes; mutations already applied are not retroactively logged.
func (st *Store) SetWAL(w WALSink) {
	st.mu.Lock()
	st.wal = w
	st.mu.Unlock()
}

// walAppendLocked logs one effective mutation batch (del selects the delete
// op), decoding the encoded triples back through the dictionary. It returns
// the record's sequence, or 0 with no error when no WAL is attached. Caller
// holds mu.
func (st *Store) walAppendLocked(del bool, batch []IDTriple) (uint64, error) {
	if st.wal == nil {
		return 0, nil
	}
	ts := make([]rdf.Triple, len(batch))
	for i, e := range batch {
		p, ok := st.terms[e.P].(rdf.IRI)
		if !ok {
			return 0, fmt.Errorf("store: predicate ID %d is not an IRI", e.P)
		}
		ts[i] = rdf.Triple{S: st.terms[e.S], P: p, O: st.terms[e.O]}
	}
	var seq uint64
	var err error
	if del {
		seq, err = st.wal.AppendDelete(ts)
	} else {
		seq, err = st.wal.AppendAdd(ts)
	}
	if err != nil {
		return 0, fmt.Errorf("store: wal append: %w", err)
	}
	return seq, nil
}
