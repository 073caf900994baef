package server

import (
	"sync"

	"github.com/lodviz/lodviz/internal/server/cache"
)

// maxLag caps how many batches, small ones included, an entry may lag the
// store and still be checked against them one by one; one further behind is
// rebuilt, as is one whose span the change log no longer covers.
const maxLag = 1 << 10

// unchanged answers the question a cached entry poses when the store has
// moved on: is e, computed at e.Gen, still what a fresh computation would
// give at generation gen, which the store has reached? It is, when no write
// since touched what the entry read — a few sorted-set lookups per
// intervening batch, in the digests the store's change log shares with every
// other follower.
func (s *Server) unchanged(e cache.Entry, gen uint64) bool {
	if e.Footprint.Whole() {
		s.met.cacheByFootprint.Inc()
		return false
	}
	if gen-e.Gen > maxLag {
		s.met.cacheByLog.Inc()
		return false
	}
	span, _, ok := s.st.DigestsSince(e.Gen)
	if !ok {
		s.met.cacheByLog.Inc()
		return false
	}
	if s.st.TouchedBy(&e.Footprint, span) {
		s.met.cacheByFootprint.Inc()
		return false
	}
	s.met.cacheRevalidated.Inc()
	return true
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
