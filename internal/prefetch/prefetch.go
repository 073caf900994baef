// Package prefetch implements the caching and prefetching layer the survey
// recommends for future WoD systems (Section 4, refs [128,16,70,39,33]):
// a generic LRU/LFU cache over abstract region keys, plus a pan-direction
// prefetcher that predicts the next viewport tiles from the user's recent
// movement — the "latent feature following" idea of SCOUT and the tile
// prefetching of Battle et al.
package prefetch

import (
	"container/list"
	"sync"
)

// Policy selects the cache replacement policy.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	LFU
)

// Cache is a bounded key→value cache with pluggable replacement policy and
// hit statistics. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	policy   Policy

	// LRU state.
	order *list.List
	items map[K]*list.Element

	// LFU state.
	freq map[K]int
	vals map[K]V

	// Hits and Misses count lookups.
	Hits, Misses int
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewCache creates a cache with the given capacity and policy.
func NewCache[K comparable, V any](capacity int, policy Policy) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		policy:   policy,
		order:    list.New(),
		items:    map[K]*list.Element{},
		freq:     map[K]int{},
		vals:     map[K]V{},
	}
}

// Get returns the cached value and whether it was present.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.policy {
	case LFU:
		v, ok := c.vals[key]
		if ok {
			c.freq[key]++
			c.Hits++
		} else {
			c.Misses++
		}
		return v, ok
	default:
		el, ok := c.items[key]
		if !ok {
			var zero V
			c.Misses++
			return zero, false
		}
		c.Hits++
		c.order.MoveToFront(el)
		return el.Value.(lruEntry[K, V]).val, true
	}
}

// Contains reports presence without affecting statistics or recency.
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.policy == LFU {
		_, ok := c.vals[key]
		return ok
	}
	_, ok := c.items[key]
	return ok
}

// Put stores a value, evicting per policy when full.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.policy {
	case LFU:
		if _, ok := c.vals[key]; !ok && len(c.vals) >= c.capacity {
			// Evict the least frequently used.
			var victim K
			best := int(^uint(0) >> 1)
			for k := range c.vals {
				if c.freq[k] < best {
					victim, best = k, c.freq[k]
				}
			}
			delete(c.vals, victim)
			delete(c.freq, victim)
		}
		c.vals[key] = val
		c.freq[key]++
	default:
		if el, ok := c.items[key]; ok {
			el.Value = lruEntry[K, V]{key, val}
			c.order.MoveToFront(el)
			return
		}
		if c.order.Len() >= c.capacity {
			last := c.order.Back()
			if last != nil {
				c.order.Remove(last)
				delete(c.items, last.Value.(lruEntry[K, V]).key)
			}
		}
		c.items[key] = c.order.PushFront(lruEntry[K, V]{key, val})
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.policy == LFU {
		return len(c.vals)
	}
	return c.order.Len()
}

// HitRate returns hits / lookups (0 when no lookups yet).
func (c *Cache[K, V]) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// Tile identifies one viewport tile in a pan/zoom session.
type Tile struct{ X, Y, Zoom int }

// Prefetcher predicts which tiles to load next from recent viewport
// movement: it extrapolates the current pan velocity and schedules the
// tiles ahead of the motion, falling back to the 8-neighborhood when idle.
type Prefetcher struct {
	// Lookahead is how many steps of motion to extrapolate (default 2).
	Lookahead int
	last      *Tile
	dx, dy    int
}

// NewPrefetcher creates a prefetcher.
func NewPrefetcher(lookahead int) *Prefetcher {
	if lookahead < 1 {
		lookahead = 2
	}
	return &Prefetcher{Lookahead: lookahead}
}

// Observe records the user's new viewport tile and returns the predicted
// tiles to prefetch, most confident first.
func (p *Prefetcher) Observe(t Tile) []Tile {
	var preds []Tile
	if p.last != nil && p.last.Zoom == t.Zoom {
		p.dx, p.dy = t.X-p.last.X, t.Y-p.last.Y
	}
	cur := t
	p.last = &cur

	if p.dx != 0 || p.dy != 0 {
		// Motion continues: prefetch along the velocity vector first.
		for step := 1; step <= p.Lookahead; step++ {
			preds = append(preds, Tile{X: t.X + p.dx*step, Y: t.Y + p.dy*step, Zoom: t.Zoom})
		}
		// Plus the flanks of the first predicted tile.
		preds = append(preds,
			Tile{X: t.X + p.dx - p.dy, Y: t.Y + p.dy - p.dx, Zoom: t.Zoom},
			Tile{X: t.X + p.dx + p.dy, Y: t.Y + p.dy + p.dx, Zoom: t.Zoom},
		)
	} else {
		// Idle: 8-neighborhood.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dx == 0 && dy == 0 {
					continue
				}
				preds = append(preds, Tile{X: t.X + dx, Y: t.Y + dy, Zoom: t.Zoom})
			}
		}
	}
	// Zoom-out parent tile is a common next step as well.
	preds = append(preds, Tile{X: t.X / 2, Y: t.Y / 2, Zoom: t.Zoom - 1})
	return preds
}

// SessionStats summarizes a simulated exploration session.
type SessionStats struct {
	Requests   int
	Hits       int
	Prefetches int
}

// HitRate returns the session's cache hit rate.
func (s SessionStats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// SimulateSession replays a viewport trace against a cache of the given
// capacity, optionally prefetching, and reports the hit rate. load is
// invoked for every actual fetch (request misses and prefetches).
func SimulateSession(trace []Tile, capacity int, usePrefetch bool, load func(Tile)) SessionStats {
	cache := NewCache[Tile, struct{}](capacity, LRU)
	var pf *Prefetcher
	if usePrefetch {
		pf = NewPrefetcher(2)
	}
	var stats SessionStats
	for _, t := range trace {
		stats.Requests++
		if _, ok := cache.Get(t); ok {
			stats.Hits++
		} else {
			load(t)
			cache.Put(t, struct{}{})
		}
		if pf != nil {
			for _, pred := range pf.Observe(t) {
				if !cache.Contains(pred) {
					load(pred)
					cache.Put(pred, struct{}{})
					stats.Prefetches++
				}
			}
		}
	}
	return stats
}
