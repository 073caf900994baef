package store

import "github.com/lodviz/lodviz/internal/rdf"

// Source is the one contract between the store and everything that runs on
// it — the SPARQL engine, facets, hierarchies, statistics, neighborhoods,
// the server's handlers: dictionary IDs in, dictionary IDs out, terms only
// through LookupTermID and Terms. These eight methods are the primitives;
// every term-space call on *Store (ForEach, ForEachPage, Match, Count,
// Triples, Contains) is sugar that resolves its constants, runs the ID scan
// and decodes under the same lock hold. A reader that scans a range and does
// work between its entries — joins, network writes, even writes to the
// store — takes a ScanIDs run, which reads one fixed state of the store and
// holds no lock; ForEachID is for a callback that touches nothing. *Store
// satisfies Source; tests wrap one to gate, count or disturb scans.
// Implementations must be safe for concurrent use — the engine's worker pool
// probes from several goroutines.
type Source interface {
	// Generation identifies the store content; any effective write advances
	// it. Caches file answers under it.
	Generation() uint64
	// NumTerms returns the dictionary size.
	NumTerms() int
	// LookupTermID resolves a term to its dictionary ID and interns
	// nothing: ok=false means the term occurs in no triple.
	LookupTermID(t rdf.Term) (ID, bool)
	// Terms batch-decodes IDs under one lock acquisition; unknown IDs
	// (including 0) decode to nil.
	Terms(ids []ID) []rdf.Term
	// ForEachID streams the matches of a mask (0 = wildcard) under one
	// consistent read view; fn must not touch the source.
	ForEachID(s, p, o ID, fn func(IDTriple) bool)
	// ScanIDs takes the matches through the permutation sorted on lead;
	// ok=false means no permutation serves that lead order. The run is
	// read-only and holds still: its Sorted is the index's own range (see
	// Store.ScanIDs).
	ScanIDs(s, p, o ID, lead Position) (IDRun, bool)
	// EstimateCountIDs sizes a mask without scanning it.
	EstimateCountIDs(s, p, o ID) int
	// Cardinalities returns the per-predicate cardinality table
	// (read-only).
	Cardinalities() map[rdf.IRI]PredCardinality
}

var _ Source = (*Store)(nil)
