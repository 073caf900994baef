package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGet(t *testing.T) {
	c := New(1 << 10)
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
	c := New(1 << 10)
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

// tiny stores a 2-byte entry (a 1-byte key and a 1-byte body): New(16)
// holds eight of them, each at its budget/8 limit.
func tiny(c *Cache, key string) { c.Put(key, Entry{Body: []byte{'x'}}) }

// TestLRUEviction pins the recency contract: once the budget is full, the
// next entry evicts the oldest.
func TestLRUEviction(t *testing.T) {
	c := New(16)
	for _, k := range "abcdefgh" {
		tiny(c, string(k))
	}
	tiny(c, "i")
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if _, ok := c.Get("i"); !ok {
		t.Fatal("newest entry was evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

// TestLRURecency verifies that a Get refreshes recency: the re-read entry
// survives an insert that evicts, the untouched one goes.
func TestLRURecency(t *testing.T) {
	c := New(16)
	for _, k := range "abcdefgh" {
		tiny(c, string(k))
	}
	c.Get("a")   // refresh a
	tiny(c, "i") // evicts b, the LRU
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-read entry was evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry survived")
	}
}

// TestFullBudgetEvictsNothing: entries costing exactly the budget are all
// kept, and the next Put evicts exactly the least recently used one.
func TestFullBudgetEvictsNothing(t *testing.T) {
	const n, size = 64, 64
	c := New(n * size)
	key := func(i int) string { return fmt.Sprintf("/facets?filter=%03d", i) }
	put := func(i int) bool { k := key(i); return c.Put(k, Entry{Body: make([]byte, size-len(k))}) }
	for i := 0; i < n; i++ {
		if !put(i) {
			t.Fatalf("entry %d of budget/%d refused", i, n)
		}
	}
	if st := c.Stats(); st.Entries != n || st.Bytes != n*size || st.Evictions != 0 {
		t.Fatalf("full cache: %+v, want %d entries, %d bytes, no evictions", st, n, n*size)
	}
	put(n)
	if st := c.Stats(); st.Entries != n || st.Bytes != n*size || st.Evictions != 1 {
		t.Fatalf("one past full: %+v, want %d entries, %d bytes, 1 eviction", st, n, n*size)
	}
	if _, ok := c.Get(key(0)); ok {
		t.Fatal("least recently used entry survived")
	}
	for i := 1; i <= n; i++ {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("entry %d was evicted", i)
		}
	}
}

// TestByteBudgetHolds: a stream of distinct large entries never takes the
// cache past its budget, and a small entry read between them survives
// them all. An entry costing more than budget/8 is not stored.
func TestByteBudgetHolds(t *testing.T) {
	const budget = 1 << 16
	c := New(budget)
	c.Put("hot", Entry{Body: []byte("small")})
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("SELECT * WHERE { ?s ?p ?o } # %d", i)
		if !c.Put(k, Entry{Body: make([]byte, budget/8-len(k)-i%100)}) {
			t.Fatalf("entry %d within budget/8 refused", i)
		}
		if st := c.Stats(); st.Bytes > budget {
			t.Fatalf("after %d puts the cache holds %d bytes, over its budget of %d", i+1, st.Bytes, budget)
		}
		if _, ok := c.Get("hot"); !ok {
			t.Fatalf("hot entry evicted by large entry %d", i)
		}
	}
	before := c.Stats()
	if c.Put("huge", Entry{Body: make([]byte, budget/8)}) {
		t.Fatal("entry over budget/8 reported stored")
	}
	if _, ok := c.Get("huge"); ok {
		t.Fatal("entry over budget/8 was stored")
	}
	if after := c.Stats(); after.Entries != before.Entries || after.Bytes != before.Bytes || after.Evictions != before.Evictions {
		t.Fatalf("refused Put changed the cache: %+v -> %+v", before, after)
	}
}

// TestEntryCap: however small its entries, the cache keeps at most
// maxEntries of them, dropping the least recently used.
func TestEntryCap(t *testing.T) {
	c := New(0)
	for i := 0; i <= maxEntries; i++ {
		c.Put(fmt.Sprint(i), Entry{})
	}
	if st := c.Stats(); st.Entries != maxEntries || st.Evictions != 1 {
		t.Fatalf("%d entries put: %+v, want %d entries and 1 eviction", maxEntries+1, st, maxEntries)
	}
	if _, ok := c.Get("0"); ok {
		t.Fatal("least recently used entry survived the entry cap")
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0)
	if c.Stats().Capacity != DefaultCapacity {
		t.Fatalf("Capacity = %d, want %d", c.Stats().Capacity, DefaultCapacity)
	}
}

// TestConcurrentAccess hammers Get/Put/Lookup/Len/Stats from many
// goroutines; run under -race this pins the locking discipline, and the
// byte count must come out equal to the entries left.
func TestConcurrentAccess(t *testing.T) {
	c := New(128 * 16)
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
			c.Lookup(key, gen, keep)
		}
	}()
	wg.Wait()
	st := c.Stats()
	bytes := 0
	for i := 0; i < 257; i++ {
		key := fmt.Sprintf("key%d", i)
		if e, ok := c.Get(key); ok {
			bytes += len(key) + len(e.Body)
		}
	}
	if st.Bytes != bytes || st.Bytes > st.Capacity {
		t.Fatalf("cache counts %d bytes, its entries cost %d, budget %d", st.Bytes, bytes, st.Capacity)
	}
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

// BenchmarkLookupHitParallel is the serving hot path under contention: every
// goroutine looks up one of 512 hot keys, all current, so each call is a hit
// that takes the cache's lock.
func BenchmarkLookupHitParallel(b *testing.B) {
	c := New(0)
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("/facets?filter=%d", i)
		c.Put(keys[i], Entry{Body: make([]byte, 256), Gen: 1})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Lookup(keys[i%len(keys)], 1, nil)
			i++
		}
	})
}
