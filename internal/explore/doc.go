// Package explore holds the scan drivers the exploration stack shares, all
// over store.Source: progressive dataset statistics (StreamStats) and
// permutation-backed neighborhood traversal (FindNeighborhood). Like the
// query engine, they join, count and group over uint32 dictionary IDs and
// decode terms only for what they emit; facet, hetree and the server build
// on them. They scan the store with two calls only: a whole-store
// aggregation iterates one store.ScanIDs run, which holds still however the
// store is written meanwhile, so no consumer ever sees a scan restart, and a
// traversal probes per node with ForEachID. Exact statistics are not
// computed here: the store keeps them (store.ComputeStats), and StreamStats
// is the estimator for a caller that wants to watch a scan converge — the
// façade's Dataset.StreamStats and the benchmark replay.
package explore
