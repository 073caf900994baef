package keyword

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lodviz/lodviz/internal/store"
)

// Lazy is the one live Index over a store, kept current by following the
// store's change log. The index is built by a full scan on first use; after
// that a write costs the next reader only the re-indexing of the subjects
// the write touched (the digests store.DigestsSince hands out name them,
// the same ones the response cache and the hierarchy bases read). A full
// rebuild happens only when the log cannot cover the gap, or when so much
// changed that scanning everything is cheaper than revisiting subjects one
// by one.
//
// One Lazy can back several consumers (the HTTP server and the façade share
// one), which keeps a dataset to a single index: searches read it under a
// shared lock, refreshes modify it in place under the exclusive one — there
// is never a second copy, so a rebuild makes searchers wait rather than
// doubling the index's memory. Safe for concurrent use.
type Lazy struct {
	st *store.Store

	mu  sync.RWMutex
	idx *Index // nil until first use
	gen uint64 // every change up to gen is reflected in idx

	incremental, rebuild     refreshCounter
	searches, searchPostings atomic.Uint64
}

type refreshCounter struct{ count, nanos atomic.Uint64 }

func (c *refreshCounter) since(start time.Time) {
	c.count.Add(1)
	c.nanos.Add(uint64(time.Since(start)))
}

func (c *refreshCounter) stats() RefreshStats {
	return RefreshStats{Count: c.count.Load(), Seconds: time.Duration(c.nanos.Load()).Seconds()}
}

// RefreshStats counts the refreshes of one kind and the time they took.
type RefreshStats struct {
	Count   uint64
	Seconds float64
}

// LazyStats is a point-in-time instrumentation view of a Lazy (the
// package keeps no metric handles; the server polls this at scrape time).
type LazyStats struct {
	// Incremental refreshes re-indexed only the subjects written since the
	// previous refresh; Rebuild ones scanned the whole store (the first use
	// is always one).
	Incremental, Rebuild RefreshStats
	// Searches counts the searches served and SearchPostings the postings
	// they read: merged by subject ID, probed by galloping, and walked in
	// impact order. Their ratio is the work one search does.
	Searches, SearchPostings uint64
}

// NewLazy returns a lazy index over st; nothing is built until first use.
func NewLazy(st *store.Store) *Lazy { return &Lazy{st: st} }

// Search is Index.Search on the store's current contents.
func (l *Lazy) Search(query string, limit int) []Hit {
	l.refresh()
	l.mu.RLock()
	defer l.mu.RUnlock()
	hits, read := l.idx.search(query, limit)
	l.searches.Add(1)
	l.searchPostings.Add(uint64(read))
	return hits
}

// Complete is Index.Complete on the store's current contents.
func (l *Lazy) Complete(prefix string, limit int) []string {
	l.refresh()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.idx.Complete(prefix, limit)
}

// Stats returns the refresh and search counters.
func (l *Lazy) Stats() LazyStats {
	return LazyStats{
		Incremental:    l.incremental.stats(),
		Rebuild:        l.rebuild.stats(),
		Searches:       l.searches.Load(),
		SearchPostings: l.searchPostings.Load(),
	}
}

// refresh brings the index up to the generation the store is at when it is
// called; concurrent callers serialize, and all but the first find the work
// done.
func (l *Lazy) refresh() {
	gen := l.st.Generation()
	l.mu.RLock()
	current := l.idx != nil && l.gen >= gen
	l.mu.RUnlock()
	if current {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.idx != nil && l.gen >= gen {
		return
	}
	start := time.Now()
	if l.idx != nil {
		if span, now, ok := l.st.DigestsSince(l.gen); ok && l.follow(span) {
			l.gen = now
			l.incremental.since(start)
			return
		}
		l.idx = nil // release the old index before building its replacement
	}
	// The scan sees the store at gen or later. Recording gen means a write
	// that slipped in between is re-indexed by the next refresh, which is
	// harmless: re-indexing a subject only re-reads its current statements.
	l.idx = BuildIndex(l.st)
	l.gen = gen
	l.rebuild.since(start)
}

// follow re-indexes the subjects the span touched, or reports false when
// a rebuild is the cheaper way to catch up. Re-indexing a subject edits both
// orders of the posting list of each of its tokens, some of them as long as
// the dataset; a rebuild appends its way through one sorted pass and sorts
// each impact order once. Measured at 10 000 entities on a 2-CPU Xeon:
// ~86µs a subject against ~1.1µs a triple, so the pass wins past about one
// touched subject per 78 triples in the store. The rule below switches at
// one per 64, slightly early.
func (l *Lazy) follow(span []*store.Digest) bool {
	var touched []store.ID
	for _, d := range span {
		touched = append(touched, d.Subjects()...)
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	if len(touched)*64 > l.st.Len() {
		return false
	}
	l.idx.reindex(l.st, touched)
	return true
}
