// Package explore holds the scan drivers the exploration stack shares, all
// over store.Source: an epoch-restarting paged walk (Walk), streaming
// dataset statistics (StreamStats) and permutation-backed neighborhood
// traversal (FindNeighborhood). Like the query engine, they join, count and
// group over uint32 dictionary IDs and decode terms only for what they
// emit; facet, hetree and the server build on them.
package explore
