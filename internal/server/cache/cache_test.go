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

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	if c.Stats().Capacity < DefaultCapacity {
		t.Fatalf("Capacity = %d, want >= %d", c.Stats().Capacity, DefaultCapacity)
	}
}

// TestConcurrentAccess hammers Get/Put/Lookup/Holds/Len/Stats from many
// goroutines; run under -race this pins the sharded locking discipline.
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
	// One goroutine looking every key up at ever newer generations
	// exercises the carry-forward and drop paths against the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key%d", i%257)
			gen := uint64(i / 257)
			keep := func(Entry, uint64) bool { return i%3 != 0 }
			if i%2 == 0 {
				c.Lookup(key, gen, keep)
			} else {
				c.Holds(key, gen, keep)
			}
		}
	}()
	wg.Wait()
}

// TestLookupValidates pins the contract the server relies on: an entry as
// new as the reader is a hit without being judged; an older one is judged
// once, then either carried forward (a hit, and as new as the reader from
// then on) or dropped (a miss, and gone).
func TestLookupValidates(t *testing.T) {
	c := New(16)
	judged := 0
	verdict := true
	judge := func(e Entry, gen uint64) bool {
		judged++
		if e.Gen != 1 || gen != 3 {
			t.Errorf("judged entry of generation %d for a reader at %d, want 1 and 3", e.Gen, gen)
		}
		return verdict
	}
	c.Put("k", Entry{Body: []byte("v"), Gen: 1})
	if e, ok := c.Lookup("k", 1, judge); !ok || judged != 0 || e.Gen != 1 {
		t.Fatalf("same-generation lookup: ok=%v judged=%d gen=%d", ok, judged, e.Gen)
	}
	if e, ok := c.Lookup("k", 3, judge); !ok || judged != 1 || e.Gen != 3 || string(e.Body) != "v" {
		t.Fatalf("carried-forward lookup: ok=%v judged=%d gen=%d body=%q", ok, judged, e.Gen, e.Body)
	}
	if _, ok := c.Lookup("k", 3, judge); !ok || judged != 1 {
		t.Fatalf("lookup after carrying forward judged again (judged=%d, ok=%v)", judged, ok)
	}
	// A reader that loaded an older generation is served the newer entry.
	if _, ok := c.Lookup("k", 2, judge); !ok || judged != 1 {
		t.Fatalf("older reader: ok=%v judged=%d", ok, judged)
	}

	c.Put("d", Entry{Gen: 1})
	verdict = false
	if _, ok := c.Lookup("d", 3, judge); ok {
		t.Fatal("entry judged changed was served")
	}
	if _, ok := c.Get("d"); ok {
		t.Fatal("entry judged changed was kept")
	}
	if cs := c.Stats(); cs.Hits != 4 || cs.Misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 4 and 2 (the failed validation and the Get after it)", cs.Hits, cs.Misses)
	}
}

// TestHoldsCountsNothing: Holds judges like Lookup but leaves the counters
// and the LRU order alone.
func TestHoldsCountsNothing(t *testing.T) {
	c := New(numShards) // one entry per shard
	keep := func(Entry, uint64) bool { return true }
	c.Put("a", Entry{Gen: 1})
	if !c.Holds("a", 2, keep) {
		t.Fatal("Holds rejected an unchanged entry")
	}
	if e, _ := c.Get("a"); e.Gen != 2 {
		t.Fatalf("Holds left the entry at generation %d, want 2", e.Gen)
	}
	if c.Holds("a", 3, func(Entry, uint64) bool { return false }) {
		t.Fatal("Holds accepted a changed entry")
	}
	if c.Holds("a", 3, keep) {
		t.Fatal("the changed entry was kept")
	}
	if cs := c.Stats(); cs.Hits != 1 || cs.Misses != 0 {
		t.Fatalf("hits=%d misses=%d; only the Get may count", cs.Hits, cs.Misses)
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
