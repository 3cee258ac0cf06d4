package service

import (
	"fmt"
	"testing"
)

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'x'
	}
	return b
}

// TestCacheCountEviction pins the entry-cap LRU order: the
// least-recently-used entry goes first, and a get refreshes recency.
func TestCacheCountEviction(t *testing.T) {
	c := newResultCache(3, 0)
	c.Put("a", body(1))
	c.Put("b", body(1))
	c.Put("c", body(1))
	// Touch a: b is now the LRU entry.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before any eviction")
	}
	c.Put("d", body(1))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived — eviction is not least-recently-used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
}

// TestCacheByteBudget is the regression test for the unbounded-memory
// bug: the entry cap alone let a few large bodies exhaust RAM. With a
// byte budget, inserting past it evicts in LRU order even when the entry
// count is nowhere near its cap.
func TestCacheByteBudget(t *testing.T) {
	c := newResultCache(1000, 100)
	c.Put("a", body(40))
	c.Put("b", body(40))
	if c.Len() != 2 || c.Bytes() != 80 {
		t.Fatalf("len=%d size=%d, want 2/80", c.Len(), c.Bytes())
	}
	// 120 bytes total: a (the LRU entry) must go; b alone fits with c.
	c.Put("c", body(40))
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte budget exceeded but the LRU entry survived")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("b evicted although evicting a was enough")
	}
	if c.Bytes() != 80 {
		t.Fatalf("size=%d after eviction, want 80", c.Bytes())
	}
	// Eviction order under byte pressure is strictly LRU: touch b, then
	// overflow — c (now LRU) goes, b stays.
	c.Get("b")
	c.Put("d", body(40))
	if _, ok := c.Get("c"); ok {
		t.Fatal("eviction under byte pressure is not least-recently-used")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("recently-used b evicted")
	}
}

// TestCacheOversizedBody pins the degenerate case: a single body larger
// than the whole budget evicts everything including itself (caching it
// would only exist to evict every other entry), and the cache keeps
// working afterwards.
func TestCacheOversizedBody(t *testing.T) {
	c := newResultCache(1000, 100)
	c.Put("a", body(40))
	c.Put("huge", body(500))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("body larger than the whole budget was cached")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d size=%d after oversized insert, want 0/0", c.Len(), c.Bytes())
	}
	c.Put("b", body(40))
	if _, ok := c.Get("b"); !ok {
		t.Fatal("cache dead after oversized insert")
	}
}

// TestCacheReplaceAccounting pins byte accounting across same-key
// replacement: the budget tracks the delta, not the sum.
func TestCacheReplaceAccounting(t *testing.T) {
	c := newResultCache(1000, 100)
	c.Put("a", body(30))
	c.Put("a", body(60))
	if c.Len() != 1 || c.Bytes() != 60 {
		t.Fatalf("len=%d size=%d after replace, want 1/60", c.Len(), c.Bytes())
	}
	c.Put("a", body(10))
	if c.Bytes() != 10 {
		t.Fatalf("size=%d after shrinking replace, want 10", c.Bytes())
	}
	// Growing a key past the budget evicts others, then (if still over)
	// the key itself.
	c.Put("b", body(50))
	c.Put("a", body(200))
	if c.Len() != 0 {
		t.Fatalf("len=%d after over-budget replace, want 0", c.Len())
	}
}

// TestCacheBytesInSnapshot pins the /metrics surface: the cache's byte
// footprint is observable, so a fleet operator can see the budget bind.
func TestCacheBytesInSnapshot(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	s.CacheFill("k", body(1234))
	if got := s.Snapshot().Cache.Bytes; got != 1234 {
		t.Fatalf("Snapshot().Cache.Bytes = %d, want 1234", got)
	}
}

// TestCacheDefaultByteBudget pins that a zero-value Options still gets a
// byte bound — the unbounded configuration must not be constructible by
// default.
func TestCacheDefaultByteBudget(t *testing.T) {
	opts := Options{}.withDefaults()
	if opts.CacheBytes <= 0 {
		t.Fatalf("default CacheBytes = %d, want a positive budget", opts.CacheBytes)
	}
	// And the cap holds end-to-end: filling past the budget stays bounded.
	c := newResultCache(opts.CacheEntries, 1<<10)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), body(100))
	}
	if c.Bytes() > 1<<10 {
		t.Fatalf("cache holds %d bytes, budget is %d", c.Bytes(), 1<<10)
	}
}
