package corpus

import (
	"sync"

	"repro/internal/merge"
	"repro/internal/obs"
)

// Trace is one decoded trace pinned in the serving cache. It stays valid
// after eviction or store close — eviction only removes the cache's own
// reference — so holders never observe a trace disappearing under them.
type Trace struct {
	// Merged is the decoded trace tree, shared by every holder. Treat it as
	// read-only.
	Merged *merge.Merged

	hash  uint64
	cost  int64
	cache *Cache
	refs  int // guarded by cache.mu

	// LRU links among evictable (refs == 0) resident entries.
	prev, next *Trace

	streamOnce sync.Once
	stream     *merge.Streamer
}

// Hash returns the trace's content address.
func (t *Trace) Hash() uint64 { return t.hash }

// Streamer returns the trace's memoized streaming replayer. All holders of
// the same cached trace share one streamer, so replay classes and their
// skeletons are discovered once per residency, not once per Get.
func (t *Trace) Streamer() *merge.Streamer {
	t.streamOnce.Do(func() { t.stream = merge.NewStreamer(t.Merged) })
	return t.stream
}

// Release returns the caller's pin. After the last release the trace becomes
// evictable (it is not dropped eagerly — a re-Get before eviction is a hit).
func (t *Trace) Release() {
	c := t.cache
	if c == nil {
		return
	}
	c.mu.Lock()
	if t.refs > 0 {
		t.refs--
		if t.refs == 0 && c.entries[t.hash] == t {
			c.pushFront(t)
			c.evictLocked()
		}
	}
	c.mu.Unlock()
}

// Cache is a size-bounded, ref-counted LRU of decoded traces keyed by
// content hash. Size is accounted in standalone-encoding bytes (the cost
// passed to Insert); only entries with no outstanding pins are evictable, so
// the cache can exceed its budget while every resident trace is in use.
type Cache struct {
	mu      sync.Mutex
	max     int64
	used    int64
	entries map[uint64]*Trace
	// Doubly-linked LRU of refs==0 entries; head is most recent.
	head, tail *Trace
}

// NewCache returns a cache bounded to max cost bytes. A non-positive max
// disables residency: Insert hands back unmanaged traces and Acquire always
// misses.
func NewCache(max int64) *Cache {
	return &Cache{max: max, entries: make(map[uint64]*Trace)}
}

// Acquire pins and returns the resident trace for hash, if any.
func (c *Cache) Acquire(hash uint64) (*Trace, bool) {
	c.mu.Lock()
	t, ok := c.entries[hash]
	if ok {
		if t.refs == 0 {
			c.unlink(t)
		}
		t.refs++
	}
	c.mu.Unlock()
	return t, ok
}

// Insert adds a decoded trace with the given cost and returns it pinned. If
// a trace with the same hash is already resident (a concurrent miss decoded
// it first), that one is returned instead and the new decode is discarded.
func (c *Cache) Insert(hash uint64, m *merge.Merged, cost int64) *Trace {
	if c.max <= 0 {
		return &Trace{Merged: m, hash: hash, cost: cost}
	}
	c.mu.Lock()
	if t, ok := c.entries[hash]; ok {
		if t.refs == 0 {
			c.unlink(t)
		}
		t.refs++
		c.mu.Unlock()
		return t
	}
	t := &Trace{Merged: m, hash: hash, cost: cost, cache: c, refs: 1}
	c.entries[hash] = t
	c.used += cost
	c.evictLocked()
	c.mu.Unlock()
	return t
}

// Invalidate drops the entry for hash if resident. Outstanding pins keep the
// trace itself alive; it just can no longer be acquired.
func (c *Cache) Invalidate(hash uint64) {
	c.mu.Lock()
	if t, ok := c.entries[hash]; ok {
		if t.refs == 0 {
			c.unlink(t)
		}
		delete(c.entries, hash)
		c.used -= t.cost
		t.cache = nil
	}
	c.mu.Unlock()
}

// Clear drops every resident entry.
func (c *Cache) Clear() {
	c.mu.Lock()
	for h, t := range c.entries {
		delete(c.entries, h)
		t.cache = nil
	}
	c.head, c.tail = nil, nil
	c.used = 0
	c.mu.Unlock()
}

// Stats returns resident entry count and summed cost.
func (c *Cache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	entries, bytes = len(c.entries), c.used
	c.mu.Unlock()
	return
}

// evictLocked drops least-recently-released unpinned entries until the cache
// fits its budget (or nothing evictable remains).
func (c *Cache) evictLocked() {
	for c.used > c.max && c.tail != nil {
		t := c.tail
		c.unlink(t)
		delete(c.entries, t.hash)
		c.used -= t.cost
		t.cache = nil
		obs.Attached().Inc(obs.CorpusCacheEvicts)
	}
}

func (c *Cache) pushFront(t *Trace) {
	t.prev, t.next = nil, c.head
	if c.head != nil {
		c.head.prev = t
	}
	c.head = t
	if c.tail == nil {
		c.tail = t
	}
}

func (c *Cache) unlink(t *Trace) {
	if t.prev != nil {
		t.prev.next = t.next
	} else if c.head == t {
		c.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else if c.tail == t {
		c.tail = t.prev
	}
	t.prev, t.next = nil, nil
}
