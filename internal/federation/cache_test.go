package federation

import (
	"fmt"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
)

func rows(n int) []sparql.Binding {
	out := make([]sparql.Binding, n)
	for i := range out {
		out[i] = sparql.Binding{"s": rdf.NewInteger(int64(i))}
	}
	return out
}

func TestResultCacheHitAndTTL(t *testing.T) {
	clock := newFakeClock()
	c := NewResultCache()
	c.now = clock.now

	key := Key("http://a/sparql", "SELECT * WHERE { ?s ?p ?o }")
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key, rows(3))
	got, ok := c.Get(key)
	if !ok || len(got) != 3 {
		t.Fatalf("Get after Put: ok=%v len=%d", ok, len(got))
	}

	// Within TTL: still served.
	clock.advance(cacheTTL - time.Second)
	if _, ok := c.Get(key); !ok {
		t.Fatal("entry expired before its TTL")
	}
	// Past TTL: expired and removed.
	clock.advance(2 * time.Second)
	if _, ok := c.Get(key); ok {
		t.Fatal("entry served after TTL")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", st)
	}
	if st.Entries != 0 {
		t.Errorf("expired entry still counted: %+v", st)
	}
}

func TestResultCacheEviction(t *testing.T) {
	c := NewResultCache()
	for i := 0; i < cacheCapacity+200; i++ {
		c.Put(Key("http://a/", fmt.Sprintf("q%d", i)), rows(1))
	}
	if n := c.Stats().Entries; n != cacheCapacity {
		t.Errorf("cache holds %d entries, want its capacity %d", n, cacheCapacity)
	}
}

// TestResultCacheHoldsCapacityAndEvictsLRU: a full cache holds every one of
// its capacity's keys, and past it evicts the least recently used entry of
// the whole cache, whatever the keys.
func TestResultCacheHoldsCapacityAndEvictsLRU(t *testing.T) {
	c := NewResultCache()
	key := func(i int) string { return Key("http://a/", fmt.Sprintf("q%d", i)) }
	for i := 0; i < cacheCapacity; i++ {
		c.Put(key(i), rows(1))
	}
	for i := 0; i < cacheCapacity; i++ {
		if _, ok := c.Get(key(i)); !ok {
			t.Fatalf("key %d of %d lost before the cache was over capacity", i, cacheCapacity)
		}
	}
	// Recency is now 0 (oldest) … capacity-1. Touch key 0, then add three:
	// keys 1, 2 and 3 go, in that order, and key 0 stays. Looking up a
	// missing key moves nothing, so each eviction is checked as it happens;
	// the held keys are looked up (which moves them) only at the end.
	c.Get(key(0))
	for n := 1; n <= 3; n++ {
		c.Put(key(cacheCapacity+n), rows(1))
		for gone := 1; gone <= n; gone++ {
			if _, ok := c.Get(key(gone)); ok {
				t.Fatalf("after %d puts past capacity: key %d, among the least recently used, is still held", n, gone)
			}
		}
	}
	for i := 0; i < cacheCapacity+4; i++ {
		if _, ok := c.Get(key(i)); !ok && (i < 1 || i > 3) && i != cacheCapacity {
			t.Fatalf("key %d was evicted; only keys 1, 2 and 3 should be", i)
		}
	}
	if n := c.Stats().Entries; n != cacheCapacity {
		t.Errorf("cache holds %d entries, want %d", n, cacheCapacity)
	}
}

func TestResultCacheKeySeparatesEndpoints(t *testing.T) {
	c := NewResultCache()
	q := "SELECT * WHERE { ?s ?p ?o }"
	c.Put(Key("http://a/sparql", q), rows(1))
	if _, ok := c.Get(Key("http://b/sparql", q)); ok {
		t.Fatal("same query on another endpoint must miss")
	}
}
