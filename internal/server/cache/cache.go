// Package cache implements the sharded LRU response cache behind the lodviz
// HTTP server. Keys are opaque strings that embed the store generation (see
// store.Generation), so a write to the store changes every key and instantly
// orphans all older entries — invalidation needs no coordination with
// writers. An orphan can never hit again, but left to the LRU it would hold
// its body until a full cache of newer entries pushed it out; the server
// instead calls Purge when it first builds a key at a new generation, which
// is counted apart from capacity evictions.
//
// The cache is sharded to keep lock contention off the serving hot path: a
// key is hashed to one of the shards and all list/map operations touch only
// that shard's mutex. Hit/miss/eviction/purge counters are process-wide
// atomics.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// numShards is the shard count. A modest power of two: enough to spread a
// saturated server's lock traffic, small enough that per-shard LRU capacity
// stays meaningful for tiny caches.
const numShards = 16

// DefaultCapacity is the entry capacity used when New is given a
// non-positive capacity.
const DefaultCapacity = 4096

// Entry is one cached response: the serialized body plus the headers the
// server re-emits on a hit.
type Entry struct {
	// Body is the exact response body that was sent on the miss.
	Body []byte
	// ETag is the strong validator computed from Body.
	ETag string
	// ContentType is the response media type.
	ContentType string
	// Status is the HTTP status the entry was stored with.
	Status int
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits   uint64
	Misses uint64
	// Evictions counts entries the LRU pushed out for lack of room, Purged
	// the entries Purge dropped.
	Evictions uint64
	Purged    uint64
	Entries   int
	Capacity  int
}

// Cache is a sharded, fixed-capacity LRU map from string keys to Entries.
// All methods are safe for concurrent use.
type Cache struct {
	shards    [numShards]shard
	capacity  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	purged    atomic.Uint64
}

type shard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	cap   int
}

type cacheItem struct {
	key   string
	entry Entry
}

// New returns a cache holding at most capacity entries (DefaultCapacity when
// capacity <= 0). Capacity is split evenly across shards, so a pathological
// key distribution can evict slightly before the global capacity is reached.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &Cache{capacity: perShard * numShards}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].cap = perShard
	}
	return c
}

func (c *Cache) shard(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%numShards]
}

// Get returns the entry for key, marking it most recently used.
func (c *Cache) Get(key string) (Entry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Entry{}, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*cacheItem).entry
	s.mu.Unlock()
	c.hits.Add(1)
	return e, true
}

// Put stores the entry under key, evicting least-recently-used entries from
// the key's shard as needed. Storing an existing key replaces its entry and
// refreshes its recency.
func (c *Cache) Put(key string, e Entry) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheItem).entry = e
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.ll.PushFront(&cacheItem{key: key, entry: e})
	var evicted uint64
	for s.ll.Len() > s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.items, back.Value.(*cacheItem).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Purge drops every entry, keeping the counters.
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.purged.Add(uint64(s.ll.Len()))
		s.ll.Init()
		s.items = make(map[string]*list.Element)
		s.mu.Unlock()
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Purged:    c.purged.Load(),
		Entries:   c.Len(),
		Capacity:  c.capacity,
	}
}
