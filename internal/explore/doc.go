// Package explore holds the scan drivers the exploration stack shares, all
// over store.Source: an epoch-restarting paged walk (Walk), progressive
// dataset statistics (StreamStats) and permutation-backed neighborhood
// traversal (FindNeighborhood). Like the query engine, they join, count and
// group over uint32 dictionary IDs and decode terms only for what they
// emit; facet, hetree and the server build on them. Exact statistics are
// not computed here: the store keeps them (store.ComputeStats), and
// StreamStats is the estimator for a caller that wants to watch a walk
// converge — the façade's Dataset.StreamStats and the benchmark replay.
package explore
