// Package cache implements the sharded LRU response cache behind the lodviz
// HTTP server. Keys are opaque strings naming a request; an Entry is a view
// of the store, carrying the store generation it was computed at and the
// footprint of what computing it read. A write does nothing to the cache.
// The next Lookup of an entry older than the store asks its caller whether
// the changes since touched the footprint: untouched, the entry is carried
// forward to the current generation and served; touched, it is dropped and
// the lookup is a miss. An entry nobody asks for again is never examined,
// and leaves by the LRU.
//
// The cache is sharded to keep lock contention off the serving hot path: a
// key is hashed to one of the shards and all list/map operations touch only
// that shard's mutex. Hit/miss/eviction counters are process-wide atomics.
package cache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"github.com/lodviz/lodviz/internal/store"
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
	// Gen is a store generation the body is known to be right for: the one
	// read before it was computed, moved forward by each Lookup that found
	// the footprint untouched.
	Gen uint64
	// Footprint is what computing the body read; the zero value is the
	// whole store.
	Footprint store.Footprint
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits   uint64
	Misses uint64
	// Evictions counts entries the LRU pushed out for lack of room.
	Evictions uint64
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

// Lookup is Get for a reader at store generation gen. An entry computed at
// gen or later is a hit. An older one is handed to unchanged — called with
// no lock held — which reports whether the body is still what a fresh
// computation would give at gen: if so the entry is carried forward to gen
// and is a hit, if not it is dropped and the lookup is a miss.
func (c *Cache) Lookup(key string, gen uint64, unchanged func(Entry, uint64) bool) (Entry, bool) {
	e, ok := c.lookup(key, gen, unchanged, true)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// Holds reports whether Lookup would hit, carrying the entry forward or
// dropping it just the same, but counts nothing and leaves recency alone:
// for asking about a view on nobody's behalf.
func (c *Cache) Holds(key string, gen uint64, unchanged func(Entry, uint64) bool) bool {
	_, ok := c.lookup(key, gen, unchanged, false)
	return ok
}

func (c *Cache) lookup(key string, gen uint64, unchanged func(Entry, uint64) bool, use bool) (Entry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		return Entry{}, false
	}
	e := el.Value.(*cacheItem).entry
	if e.Gen >= gen {
		if use {
			s.ll.MoveToFront(el)
		}
		s.mu.Unlock()
		return e, true
	}
	s.mu.Unlock()
	valid := unchanged(e, gen)
	s.mu.Lock()
	// Act on the entry that was judged; one stored meanwhile is left alone.
	if el, ok := s.items[key]; ok && el.Value.(*cacheItem).entry.Gen == e.Gen {
		if !valid {
			s.ll.Remove(el)
			delete(s.items, key)
		} else {
			el.Value.(*cacheItem).entry.Gen = gen
			if use {
				s.ll.MoveToFront(el)
			}
		}
	}
	s.mu.Unlock()
	if !valid {
		return Entry{}, false
	}
	e.Gen = gen
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

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Capacity:  c.capacity,
	}
}
