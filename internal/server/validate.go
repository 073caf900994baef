package server

import (
	"sync"

	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/server/cache"
	"github.com/lodviz/lodviz/internal/store"
)

// Bounds on the digests kept beside the cache: as many triples as the
// store's own change log retains (a span the log has dropped cannot be
// extended anyway), and a cap on how many batches, small ones included, an
// entry may lag and still be worth checking one by one.
const (
	digestTriples = 1 << 16
	digestBatches = 1 << 10
)

// changeDigests answers the question a cached entry poses when the store
// has moved on: did anything written since touch what the entry read? It
// follows the store's change log on demand — never on the write path —
// digesting each batch once, so that checking an entry is a few sorted-set
// lookups per intervening generation.
type changeDigests struct {
	st *store.Store

	mu sync.RWMutex
	// digests cover the generations (floor, through], one each, oldest
	// first; triples sums their sizes.
	digests        []*store.Digest
	floor, through uint64
	triples        int

	// revalidated counts entries carried across at least one generation;
	// invalidated, by cause, those dropped: footprint touched, or the span
	// not covered by the log.
	revalidated           *obs.Counter
	byFootprint, byLogGap *obs.Counter
}

func newChangeDigests(st *store.Store, met *serverMetrics) *changeDigests {
	gen := st.Generation()
	return &changeDigests{
		st: st, floor: gen, through: gen,
		revalidated: met.cacheRevalidated,
		byFootprint: met.cacheInvalidated.With("footprint"),
		byLogGap:    met.cacheInvalidated.With("log"),
	}
}

// unchanged reports whether e, computed at e.Gen, is still what a fresh
// computation would give at generation gen, which the store has reached.
func (c *changeDigests) unchanged(e cache.Entry, gen uint64) bool {
	if e.Footprint.Whole() {
		c.byFootprint.Inc()
		return false
	}
	c.mu.RLock()
	if c.through < gen {
		c.mu.RUnlock()
		c.follow()
		c.mu.RLock()
	}
	defer c.mu.RUnlock()
	if e.Gen < c.floor {
		c.byLogGap.Inc()
		return false
	}
	if c.st.TouchedBy(&e.Footprint, c.digests[e.Gen-c.floor:]) {
		c.byFootprint.Inc()
		return false
	}
	c.revalidated.Inc()
	return true
}

// follow digests the batches logged since the last call. When the log
// cannot vouch for the span, everything digested so far is useless: the
// floor moves to the present and older entries fail for want of a log.
func (c *changeDigests) follow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	changes, now, ok := c.st.ChangesSince(c.through)
	if !ok {
		c.digests, c.triples = nil, 0
		c.floor, c.through = now, now
		return
	}
	for _, ch := range changes {
		d := store.NewDigest(ch)
		c.digests = append(c.digests, d)
		c.triples += d.Len()
	}
	c.through = now
	drop := 0
	for c.triples > digestTriples || len(c.digests)-drop > digestBatches {
		c.triples -= c.digests[drop].Len()
		c.floor = c.digests[drop].Gen
		drop++
	}
	if drop > 0 {
		c.digests = append([]*store.Digest(nil), c.digests[drop:]...)
	}
}

// flights lets one caller at a time work on a key while the others wait
// for it: two requests for one uncached view, or a request and a warm job,
// would otherwise build the same response side by side, doubling its
// working memory for nothing.
type flights struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

// join registers the caller as the one working on key, or returns the
// channel that closes when the one who is has finished.
func (f *flights) join(key string) (wait <-chan struct{}, leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if done, busy := f.m[key]; busy {
		return done, false
	}
	if f.m == nil {
		f.m = map[string]chan struct{}{}
	}
	f.m[key] = make(chan struct{})
	return nil, true
}

// leave ends the leader's turn on key and releases the waiters.
func (f *flights) leave(key string) {
	f.mu.Lock()
	done := f.m[key]
	delete(f.m, key)
	f.mu.Unlock()
	close(done)
}
