package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// ResultCache is the content-addressed LRU result cache: marshalled
// response bodies keyed by canonical request hash, bounded by entry
// count and total body bytes, with an optional TTL. Determinism makes
// this safe: a cached body is bit-for-bit the body a fresh engine run
// would produce, so the TTL exists only to bound memory residency,
// never to bound staleness.
//
// The type is exported because it is shared infrastructure: the live
// HTTP server shards its cache over many ResultCaches (see
// ShardedCache), and the cluster simulator (internal/cluster)
// instantiates one per simulated replica — with an injected virtual
// clock — so fleet-level cache behaviour is measured on the production
// eviction/recency/TTL code path, not on a model of it.
//
// Concurrency: all operations are safe for concurrent use. Lifetime
// counters are atomics, and a Get for the most-recently-used key — the
// dominant pattern when one hot request is hammered — is resolved
// lock-free: entries are immutable once published, so the front-of-list
// hint can be validated and its body returned without touching the
// mutex (the entry is already most recently used, making the recency
// bump a no-op). Every other operation takes the per-cache mutex.
type ResultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ttl        time.Duration
	now        func() time.Time
	ll         *list.List // front = most recently used
	index      map[uint64]*list.Element
	bytes      int64

	// front mirrors the list front under mu; the lock-free Get fast
	// path validates it by key and expiry. Entries are immutable, so a
	// momentarily stale hint can only serve a body that was live when
	// the hint was read — and bodies are pure functions of their key.
	front atomic.Pointer[cacheEntry]

	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	expirations atomic.Uint64
}

// CacheStats are a cache's lifetime counters.
type CacheStats struct {
	// Hits counts Get calls that returned a live body.
	Hits uint64
	// Misses counts Get calls that found nothing (or an expired entry).
	Misses uint64
	// Evictions counts entries dropped to satisfy the size bounds.
	Evictions uint64
	// Expirations counts entries dropped because their TTL passed.
	Expirations uint64
}

// add accumulates other into s (the ShardedCache aggregation).
func (s *CacheStats) add(other CacheStats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Expirations += other.Expirations
}

// cacheEntry is one cached response body. Entries are immutable after
// publication — a Put that refreshes an existing key installs a fresh
// entry rather than mutating the old one — so the lock-free Get fast
// path may read any entry it can reach without synchronisation.
type cacheEntry struct {
	key     uint64
	body    []byte
	expires time.Time // zero when the cache has no TTL
}

// NewResultCache builds a cache holding at most maxEntries bodies and
// maxBytes total body bytes; entries older than ttl are dropped on
// access (ttl <= 0 disables expiry). now is injectable for tests and
// for the cluster simulator's virtual clock; nil means time.Now.
func NewResultCache(maxEntries int, maxBytes int64, ttl time.Duration, now func() time.Time) *ResultCache {
	if now == nil {
		now = time.Now
	}
	return &ResultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ttl:        ttl,
		now:        now,
		ll:         list.New(),
		index:      map[uint64]*list.Element{},
	}
}

// live reports whether e has not expired at the injected clock's now.
func (c *ResultCache) live(e *cacheEntry) bool {
	return e.expires.IsZero() || !c.now().After(e.expires)
}

// Get returns the cached body for key and marks it most recently used.
// Expired entries are removed and reported as misses.
func (c *ResultCache) Get(key uint64) ([]byte, bool) {
	// Fast path: the key is already most recently used, so the recency
	// bump is a no-op and nothing needs the lock. Expired or stale
	// hints fall through to the locked path, which settles them.
	if e := c.front.Load(); e != nil && e.key == key && c.live(e) {
		c.hits.Add(1)
		return e.body, true
	}
	c.mu.Lock()
	el, ok := c.index[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if !c.live(e) {
		c.removeLocked(el)
		c.syncFrontLocked()
		c.mu.Unlock()
		c.expirations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.syncFrontLocked()
	c.mu.Unlock()
	c.hits.Add(1)
	return e.body, true
}

// Peek reports whether key holds a live (non-expired) entry without
// touching recency order or the hit/miss counters — the read routers
// use to ask "would this replica hit?" before committing a request.
func (c *ResultCache) Peek(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok || c.ttl <= 0 {
		// Without a TTL nothing expires: skip loading the entry.
		return ok
	}
	return c.live(el.Value.(*cacheEntry))
}

// Put stores body under key, evicting least-recently-used entries until
// both bounds hold. A body larger than the byte bound is not cached.
func (c *ResultCache) Put(key uint64, body []byte) {
	if c.maxEntries <= 0 || int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		// Deterministic engine: same key means same body. Refresh
		// recency and expiry rather than storing a duplicate — with a
		// fresh immutable entry, never by mutating the published one.
		old := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(old.body))
		el.Value = &cacheEntry{key: key, body: body, expires: c.expiry()}
		c.ll.MoveToFront(el)
		c.syncFrontLocked()
		c.mu.Unlock()
		return
	}
	e := &cacheEntry{key: key, body: body, expires: c.expiry()}
	c.index[key] = c.ll.PushFront(e)
	c.bytes += int64(len(body))
	var evicted uint64
	for c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest)
		evicted++
	}
	c.syncFrontLocked()
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// expiry returns the deadline for an entry stored now.
func (c *ResultCache) expiry() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	return c.now().Add(c.ttl)
}

// removeLocked unlinks one entry. Callers hold c.mu.
func (c *ResultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= int64(len(e.body))
}

// syncFrontLocked republishes the front-of-list hint after a mutation.
// Callers hold c.mu.
func (c *ResultCache) syncFrontLocked() {
	if el := c.ll.Front(); el != nil {
		c.front.Store(el.Value.(*cacheEntry))
	} else {
		c.front.Store(nil)
	}
}

// Len returns the number of live entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// SizeBytes returns the total cached body bytes.
func (c *ResultCache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Snapshot returns the lifetime counters.
func (c *ResultCache) Snapshot() CacheStats {
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
	}
}
