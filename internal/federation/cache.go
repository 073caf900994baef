package federation

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
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

// rcShards is the shard count of the remote-result cache.
const rcShards = 16

// DefaultCacheCapacity is the entry capacity used for non-positive values.
const DefaultCacheCapacity = 1024

// DefaultCacheTTL is the entry lifetime used for non-positive values.
const DefaultCacheTTL = 30 * time.Second

// ResultCache is a sharded LRU of decoded remote results with TTL expiry.
// Safe for concurrent use. Cached rows are shared between readers and must
// be treated as immutable.
type ResultCache struct {
	ttl    time.Duration
	now    func() time.Time
	shards [rcShards]rcShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

type rcShard struct {
	mu    sync.Mutex
	ll    *list.List
	items map[string]*list.Element
	cap   int
}

type rcItem struct {
	key     string
	rows    []sparql.Binding
	expires time.Time
}

// NewResultCache returns a cache of at most capacity entries whose entries
// expire ttl after insertion.
func NewResultCache(capacity int, ttl time.Duration) *ResultCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	if ttl <= 0 {
		ttl = DefaultCacheTTL
	}
	perShard := (capacity + rcShards - 1) / rcShards
	c := &ResultCache{ttl: ttl, now: time.Now}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].cap = perShard
	}
	return c
}

// Key builds the cache key for a subquery against an endpoint.
func Key(endpoint, query string) string {
	return endpoint + "\x00" + query
}

func (c *ResultCache) shard(key string) *rcShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%rcShards]
}

// Get returns the cached rows for key if present and unexpired. Expired
// entries are removed on access.
func (c *ResultCache) Get(key string) ([]sparql.Binding, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	it := el.Value.(*rcItem)
	if c.now().After(it.expires) {
		s.ll.Remove(el)
		delete(s.items, key)
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.ll.MoveToFront(el)
	rows := it.rows
	s.mu.Unlock()
	c.hits.Add(1)
	return rows, true
}

// Put stores rows under key with the cache's TTL, evicting LRU entries from
// the key's shard as needed.
func (c *ResultCache) Put(key string, rows []sparql.Binding) {
	s := c.shard(key)
	expires := c.now().Add(c.ttl)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		it := el.Value.(*rcItem)
		it.rows, it.expires = rows, expires
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.ll.PushFront(&rcItem{key: key, rows: rows, expires: expires})
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.items, back.Value.(*rcItem).key)
	}
	s.mu.Unlock()
}

// Len returns the number of cached entries (expired ones included until
// touched).
func (c *ResultCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a snapshot of remote-result cache effectiveness.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Stats returns the cache counters.
func (c *ResultCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.Len()}
}
