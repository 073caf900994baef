// Package cache implements the LRU response cache behind the lodviz HTTP
// server. Keys are opaque strings naming a request; an Entry is a view of
// the store, carrying the store generation it was computed at and the
// footprint of what computing it read. A write does nothing to the cache.
// The next Lookup of an entry older than the store asks its caller whether
// the changes since touched the footprint: untouched, the entry is carried
// forward to the current generation and served; touched, it is dropped and
// the lookup is a miss. An entry nobody asks for again is never examined,
// and leaves by the LRU.
//
// The cache is bounded in bytes: an entry costs len(key)+len(Body), and one
// costing more than an eighth of the budget is not stored, so no single
// response can push out most of the others. It also holds at most 4 096
// entries. One mutex guards the map, the recency list and the counters.
package cache

import (
	"container/list"
	"sync"

	"github.com/lodviz/lodviz/internal/store"
)

// DefaultCapacity is the byte budget used when New is given a non-positive
// capacity.
const DefaultCapacity = 32 << 20

// maxEntries bounds the entry count whatever the budget: an entry also
// costs what its bytes do not count (a map slot, a list element, its ETag
// and footprint), and point lookups that nobody repeats would otherwise keep
// a whole budget of small entries alive.
const maxEntries = 4096

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
	// Bytes is what the resident entries cost against Capacity, the byte
	// budget.
	Bytes    int
	Capacity int
}

// Cache is an LRU map from string keys to Entries under a byte budget.
// All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int
	capacity int

	hits, misses, evictions uint64
}

type cacheItem struct {
	key   string
	entry Entry
}

func (it *cacheItem) size() int { return len(it.key) + len(it.entry.Body) }

// New returns a cache whose entries cost at most capacity bytes together
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{ll: list.New(), items: make(map[string]*list.Element), capacity: capacity}
}

// Get returns the entry for key, marking it most recently used.
func (c *Cache) Get(key string) (Entry, bool) {
	return c.Lookup(key, 0, nil)
}

// Lookup is Get for a reader at store generation gen. An entry computed at
// gen or later is a hit. An older one is handed to unchanged — called with
// no lock held — which reports whether the body is still what a fresh
// computation would give at gen: if so the entry is carried forward to gen
// and is a hit, if not it is dropped and the lookup is a miss.
func (c *Cache) Lookup(key string, gen uint64, unchanged func(Entry, uint64) bool) (Entry, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return Entry{}, false
	}
	e := el.Value.(*cacheItem).entry
	if e.Gen >= gen {
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	valid := unchanged(e, gen)
	c.mu.Lock()
	defer c.mu.Unlock()
	// Act on the entry that was judged; one stored meanwhile is left alone.
	if el, ok := c.items[key]; ok && el.Value.(*cacheItem).entry.Gen == e.Gen {
		if valid {
			el.Value.(*cacheItem).entry.Gen = gen
			c.ll.MoveToFront(el)
		} else {
			c.remove(el)
		}
	}
	if !valid {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	e.Gen = gen
	return e, true
}

// Put stores the entry under key, evicting least-recently-used entries
// while the cache is over its budget or maxEntries, and reports whether it
// did: an entry costing more than an eighth
// of the budget is refused. Storing an existing key replaces its entry and
// refreshes its recency.
func (c *Cache) Put(key string, e Entry) bool {
	it := &cacheItem{key: key, entry: e}
	if it.size() > c.capacity/8 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.bytes -= el.Value.(*cacheItem).size()
		el.Value = it
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(it)
	}
	c.bytes += it.size()
	for c.bytes > c.capacity || c.ll.Len() > maxEntries {
		c.remove(c.ll.Back())
		c.evictions++
	}
	return true
}

func (c *Cache) remove(el *list.Element) {
	it := el.Value.(*cacheItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.size()
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.ll.Len(), Bytes: c.bytes, Capacity: c.capacity,
	}
}
