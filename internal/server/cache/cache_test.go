package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New(8)
	if _, ok := c.Get("missing"); ok {
		t.Fatal("empty cache returned a hit")
	}
	e := Entry{Body: []byte("body"), ETag: `"abc"`, ContentType: "application/json", Status: 200}
	c.Put("k", e)
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("want hit after Put")
	}
	if string(got.Body) != "body" || got.ETag != `"abc"` || got.ContentType != "application/json" || got.Status != 200 {
		t.Fatalf("entry round-trip mismatch: %+v", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestUpdateReplacesEntry(t *testing.T) {
	c := New(8)
	c.Put("k", Entry{Body: []byte("old")})
	c.Put("k", Entry{Body: []byte("new")})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put, want 1", c.Len())
	}
	got, _ := c.Get("k")
	if string(got.Body) != "new" {
		t.Fatalf("Body = %q, want new", got.Body)
	}
}

// TestLRUEviction pins the recency contract per shard: with a capacity of
// numShards (one entry per shard), a second key landing in an occupied shard
// evicts that shard's older entry.
func TestLRUEviction(t *testing.T) {
	c := New(numShards) // 1 entry per shard
	sh := c.shard("a")
	// Find another key that hashes to the same shard as "a".
	collide := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key%d", i)
		if c.shard(k) == sh {
			collide = k
			break
		}
	}
	if collide == "" {
		t.Fatal("no colliding key found")
	}
	c.Put("a", Entry{Body: []byte("a")})
	c.Put(collide, Entry{Body: []byte("b")})
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived past shard capacity")
	}
	if _, ok := c.Get(collide); !ok {
		t.Fatal("newest entry was evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

// TestLRURecency verifies that a Get refreshes recency: the re-read entry
// survives an insert that evicts, the untouched one goes.
func TestLRURecency(t *testing.T) {
	c := New(numShards * 2) // 2 entries per shard
	sh := c.shard("seed")
	var keys []string
	for i := 0; len(keys) < 3 && i < 100000; i++ {
		k := fmt.Sprintf("key%d", i)
		if c.shard(k) == sh {
			keys = append(keys, k)
		}
	}
	if len(keys) < 3 {
		t.Fatal("not enough colliding keys found")
	}
	c.Put(keys[0], Entry{})
	c.Put(keys[1], Entry{})
	c.Get(keys[0])          // refresh keys[0]
	c.Put(keys[2], Entry{}) // evicts keys[1], the LRU
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently-read entry was evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("least-recently-used entry survived")
	}
}

func TestPurge(t *testing.T) {
	c := New(16)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), Entry{})
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Purge, want 0", c.Len())
	}
	if _, ok := c.Get("k3"); ok {
		t.Fatal("purged entry still readable")
	}
	// Purged entries are counted, and not as capacity evictions.
	if cs := c.Stats(); cs.Purged != 10 || cs.Evictions != 0 {
		t.Fatalf("Purged = %d, Evictions = %d; want 10, 0", cs.Purged, cs.Evictions)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	if c.Stats().Capacity < DefaultCapacity {
		t.Fatalf("Capacity = %d, want >= %d", c.Stats().Capacity, DefaultCapacity)
	}
}

// TestConcurrentAccess hammers Get/Put/Len/Stats/Purge from many goroutines;
// run under -race this pins the sharded locking discipline.
func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	const goroutines = 16
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key%d", (g*31+i)%257)
				switch i % 5 {
				case 0, 1:
					c.Put(key, Entry{Body: []byte(key), Status: 200})
				case 2, 3:
					if e, ok := c.Get(key); ok && string(e.Body) != key {
						t.Errorf("got body %q for key %q", e.Body, key)
					}
				case 4:
					c.Len()
					c.Stats()
				}
			}
		}(g)
	}
	// One goroutine purging concurrently exercises the reset path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			c.Purge()
		}
	}()
	wg.Wait()
}

// TestGenerationKeysDisjoint documents the invalidation contract the server
// relies on: the same query at two store generations is two distinct keys,
// so a store write can never serve a pre-write body.
func TestGenerationKeysDisjoint(t *testing.T) {
	c := New(16)
	key := func(gen uint64) string { return fmt.Sprintf("sparql|SELECT ?s WHERE { ?s ?p ?o }|g%d", gen) }
	c.Put(key(1), Entry{Body: []byte("old")})
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("entry cached at generation 1 answered a generation-2 lookup")
	}
	c.Put(key(2), Entry{Body: []byte("new")})
	got, ok := c.Get(key(2))
	if !ok || string(got.Body) != "new" {
		t.Fatalf("generation-2 entry = %q, %v", got.Body, ok)
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(1024)
	for i := 0; i < 512; i++ {
		c.Put(fmt.Sprintf("key%d", i), Entry{Body: make([]byte, 256)})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(fmt.Sprintf("key%d", i%512))
			i++
		}
	})
}
