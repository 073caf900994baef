package federation

import (
	"container/list"
	"sync"
	"time"

	"github.com/lodviz/lodviz/internal/sparql"
)

// The remote-result cache differs from the server's response cache in one
// fundamental way: local responses are checked against the store's change
// log, which records every write, so a stale body is never served. Remote
// data has no log we can observe — so entries instead carry a TTL and
// staleness is bounded by time. Keys are (endpoint, subquery text); the bind-join executor
// generates canonical subquery text, so identical SERVICE work hits
// identical keys.

// cacheCapacity is the number of entries the remote-result cache holds.
const cacheCapacity = 1024

// cacheTTL is how long after insertion a remote result may be served.
const cacheTTL = 30 * time.Second

// ResultCache is an LRU of decoded remote results with TTL expiry. Safe for
// concurrent use. Cached rows are shared between readers and must be treated
// as immutable.
type ResultCache struct {
	now func() time.Time

	mu     sync.Mutex
	ll     *list.List // most recently used at the front
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

type rcItem struct {
	key     string
	rows    []sparql.Binding
	expires time.Time
}

// NewResultCache returns an empty cache.
func NewResultCache() *ResultCache {
	return &ResultCache{now: time.Now, ll: list.New(), items: make(map[string]*list.Element)}
}

// Key builds the cache key for a subquery against an endpoint.
func Key(endpoint, query string) string {
	return endpoint + "\x00" + query
}

// Get returns the cached rows for key if present and unexpired. Expired
// entries are removed on access.
func (c *ResultCache) Get(key string) ([]sparql.Binding, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok && c.now().After(el.Value.(*rcItem).expires) {
		c.ll.Remove(el)
		delete(c.items, key)
		ok = false
	}
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*rcItem).rows, true
}

// Put stores rows under key with the cache's TTL, evicting the least
// recently used entry once the cache is full.
func (c *ResultCache) Put(key string, rows []sparql.Binding) {
	expires := c.now().Add(cacheTTL)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*rcItem)
		it.rows, it.expires = rows, expires
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&rcItem{key: key, rows: rows, expires: expires})
	if c.ll.Len() > cacheCapacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*rcItem).key)
	}
}

// CacheStats is a snapshot of remote-result cache effectiveness.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"` // expired ones included until touched
}

// Stats returns the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len()}
}
