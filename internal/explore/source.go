// Package explore is the ID-space substrate of the exploration stack: the
// Source interface the facet, hetree, and progressive-aggregate layers
// compute against, plus the shared scan drivers (an epoch-restarting paged
// walk, streaming dataset statistics, and permutation-backed neighborhood
// traversal). It mirrors the role sparql.IDSource plays for the query
// engine — exploration primitives join, count, and group over uint32
// dictionary IDs and decode terms only for what they actually emit.
package explore

import (
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Source is the store surface exploration primitives run on, mirroring
// sparql.IDSource: dictionary lookup and batch decode, sorted permutation
// runs (ScanIDs), paged position-cursor scans (ForEachIDPage, guarded by
// LayoutEpoch), and the cardinality summaries facet and stats ranking use.
// *store.Store satisfies it; tests wrap it to gate or instrument scans.
type Source interface {
	// Generation identifies the store content; any effective write advances
	// it. Exploration caches file final answers under it.
	Generation() uint64
	// LayoutEpoch identifies the physical index layout; compactions advance
	// it and invalidate positional cursors held across pages.
	LayoutEpoch() uint64
	// NumTerms returns the dictionary size.
	NumTerms() int
	// LookupTermID interns nothing: ok=false means the term does not occur.
	LookupTermID(t rdf.Term) (store.ID, bool)
	// Terms batch-decodes IDs under one lock acquisition.
	Terms(ids []store.ID) []rdf.Term
	// ScanIDs materializes the sorted run for a bound mask (0 = wildcard)
	// in the permutation serving lead.
	ScanIDs(s, p, o store.ID, lead store.Position) (store.IDRun, bool)
	// ForEachIDPage pages through the PosAny permutation for the mask with
	// a positional cursor; see store.Store.ForEachIDPage for the contract.
	ForEachIDPage(s, p, o store.ID, pos, max int, fn func(store.IDTriple) bool) (next int, done bool)
	// ForEachID streams matches under one consistent read view.
	ForEachID(s, p, o store.ID, fn func(store.IDTriple) bool)
	// EstimateCountIDs sizes a bound mask without scanning it.
	EstimateCountIDs(s, p, o store.ID) int
	// Cardinalities returns the per-predicate cardinality table (read-only).
	Cardinalities() map[rdf.IRI]store.PredCardinality
}

var _ Source = (*store.Store)(nil)
