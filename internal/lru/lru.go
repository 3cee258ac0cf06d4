// Package lru is the one bounded least-recently-used map the repository
// uses wherever it keeps derived state that is expensive to rebuild but
// must not grow without limit: the estimation service's response bodies,
// uploaded traces and resolved programs, and a simulation pool's recorded
// replay traces.
package lru

import "container/list"

// Cache is an LRU map bounded two ways: an entry-count cap and a byte
// budget over the stored values, as measured by the size function given
// to New. The count cap alone is not a memory bound — a few large values
// can exhaust RAM well inside any reasonable entry cap — so the byte
// budget is the binding constraint for large values and the count cap
// for many small ones. Whichever is exceeded, eviction is strictly
// least-recently-used; a single value larger than the whole budget is
// not cacheable at all (it would only exist to evict everything else).
//
// A Cache is not safe for concurrent use; callers hold their own lock.
type Cache[K comparable, V any] struct {
	cap      int
	maxBytes int64
	bytes    int64
	size     func(V) int64
	ll       *list.List
	items    map[K]*list.Element
}

// entry is one cached value with the size it was charged at insertion.
type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns an LRU holding at most cap entries (cap >= 1) whose values
// total at most maxBytes as measured by size (maxBytes 0: no byte budget).
func New[K comparable, V any](cap int, maxBytes int64, size func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{cap: cap, maxBytes: maxBytes, size: size, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key, evicting least-recently-used entries while
// either bound (entry count, byte budget) is exceeded.
func (c *Cache[K, V]) Put(key K, val V) {
	n := c.size(val)
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		ent := el.Value.(*entry[K, V])
		c.bytes += n - ent.size
		ent.val, ent.size = val, n
	} else {
		c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: n})
		c.bytes += n
	}
	for c.ll.Len() > 0 && (c.ll.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		back := c.ll.Back()
		ent := back.Value.(*entry[K, V])
		c.ll.Remove(back)
		delete(c.items, ent.key)
		c.bytes -= ent.size
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Bytes returns the total size of the cached values.
func (c *Cache[K, V]) Bytes() int64 { return c.bytes }
