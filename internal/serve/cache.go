package serve

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, thread-safe LRU mapping canonical request hashes
// to serialized response bodies. Storing the exact bytes written on the
// cold path is what makes cache hits byte-identical to cold evaluations:
// a hit replays the stored body verbatim, with no re-marshaling.
//
// The cache is bounded by total bytes (keys + bodies) first and entry
// count second. The byte budget is the one that matters operationally: a
// handful of multi-megabyte /v1/simulate responses would sail under any
// reasonable entry-count cap while exhausting process memory. Keys count
// toward the budget because the L1 request index uses whole request
// bodies as keys — there, the keys ARE the memory. Eviction is strict
// LRU under both limits.
//
// A nil *lruCache is a disabled cache: Get always misses and Put stores
// nothing.
type lruCache struct {
	mu       sync.Mutex
	maxN     int
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used
	items    map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

// newLRU builds a cache holding at most maxEntries entries and maxBytes
// total body bytes. maxBytes <= 0 disables the byte bound (count-only).
func newLRU(maxEntries int, maxBytes int64) *lruCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &lruCache{
		maxN:     maxEntries,
		maxBytes: maxBytes,
		order:    list.New(),
		items:    make(map[string]*list.Element, maxEntries),
	}
}

// Get returns the cached body and marks the entry most recently used.
func (c *lruCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores a body under the key, evicting least recently used entries
// until both the byte and entry budgets hold. An entry larger than the
// whole byte budget is rejected outright (caching it would evict
// everything else for one entry that can never share the cache); Put
// reports whether the body was stored. The caller must not mutate body
// afterwards.
func (c *lruCache) Put(key string, body []byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && int64(len(key))+int64(len(body)) > c.maxBytes {
		// An oversized replacement also invalidates the stale entry: the
		// caller just recomputed this key, so keeping old bytes would pin
		// memory for a response we refuse to serve from cache anyway.
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
		}
		return false
	}
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
	} else {
		c.items[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += int64(len(key)) + int64(len(body))
	}
	for c.order.Len() > c.maxN || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
	}
	return true
}

// Delete drops one entry, reporting whether it existed. The L1
// maintenance path uses it: when the canonical tier has evicted a key,
// the L1 entry pointing at it is dead weight — its key is a whole
// request body — and would re-miss forever if left in place.
func (c *lruCache) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeLocked(el)
	return true
}

// removeLocked drops one entry, keeping the byte account in step.
func (c *lruCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.items, e.key)
	c.bytes -= int64(len(e.key)) + int64(len(e.body))
}

// Len reports the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes reports the total accounted bytes (keys plus bodies).
func (c *lruCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Entries snapshots every entry in least-recently-used-first order — the
// order a restore should Put them back in, so the most recently used
// entry ends up back at the front. Bodies are shared, not copied: cache
// bodies are immutable by the Put contract.
func (c *lruCache) Entries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		out = append(out, cacheEntry{key: e.key, body: e.body})
	}
	return out
}
