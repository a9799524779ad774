// Package cache implements the client-side caching models of §3.2: "a
// document is cached after it is first retrieved (as a result of a
// client-initiated request or as a result of a server-initiated speculative
// service), and remains in the cache until it is purged at the end of the
// session."
//
// The paper sweeps the session semantics through SessionTimeout: ∞ emulates
// an infinite multi-session cache, 60 minutes an infinite single-session
// cache, and 0 no cache at all. The fine-tuning study of §3.4 also asks
// about modest finite caches, which the LRU capacity bound here provides.
package cache

import (
	"container/list"
	"math"
	"sort"
	"sync"
	"time"

	"specweb/internal/obs"
	"specweb/internal/webgraph"
)

// cacheMetrics aggregates over every live cache instance (replays and
// simulations build one cache per client, so per-instance series would
// explode; the paper's quantities are fleet totals anyway). Registered
// lazily in obs.Default on first cache construction.
type cacheMetrics struct {
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	purges    *obs.Counter
	bytes     *obs.Gauge
	docs      *obs.Gauge
}

var (
	metricsOnce sync.Once
	met         cacheMetrics
)

func metrics() *cacheMetrics {
	metricsOnce.Do(func() {
		met = cacheMetrics{
			hits:      obs.Default.Counter("specweb_cache_hits_total", "Client-cache lookups that hit.", nil),
			misses:    obs.Default.Counter("specweb_cache_misses_total", "Client-cache lookups that missed.", nil),
			evictions: obs.Default.Counter("specweb_cache_evictions_total", "Documents evicted by the LRU capacity bound.", nil),
			purges:    obs.Default.Counter("specweb_cache_purges_total", "End-of-session cache purges.", nil),
			bytes:     obs.Default.Gauge("specweb_cache_bytes", "Bytes currently cached across all live caches.", nil),
			docs:      obs.Default.Gauge("specweb_cache_docs", "Documents currently cached across all live caches.", nil),
		}
	})
	return &met
}

// Forever is the SessionTimeout value meaning "never purge" (the paper's
// SessionTimeout = ∞).
const Forever = time.Duration(math.MaxInt64)

// Cache is one client's document cache. Callers must call Touch with the
// current time before Has/Put so session expiry can take effect; times must
// be non-decreasing across calls.
type Cache interface {
	// Touch advances the cache's clock; a gap of SessionTimeout or more
	// since the previous Touch ends the session and purges the cache.
	Touch(at time.Time)
	// Has reports whether the document is cached.
	Has(doc webgraph.DocID) bool
	// Contains reports the same without counting a lookup or refreshing
	// the document's recency — for callers mirroring the retained set.
	Contains(doc webgraph.DocID) bool
	// Put inserts a document of the given size.
	Put(doc webgraph.DocID, size int64)
	// Len returns the number of cached documents.
	Len() int
	// Bytes returns the cached byte total.
	Bytes() int64
	// Docs returns the cached document IDs in ascending order — the
	// digest a cooperative client piggybacks on its requests (§3.4).
	Docs() []webgraph.DocID
}

// New builds a cache for the given session timeout and capacity:
//
//   - timeout <= 0: no cache (every request its own session);
//   - timeout == Forever: multi-session cache, never purged;
//   - otherwise: purged after timeout of inactivity.
//
// capacity <= 0 means unbounded; otherwise least-recently-used documents
// are evicted to keep Bytes() <= capacity.
func New(timeout time.Duration, capacity int64) Cache {
	if timeout <= 0 {
		return nullCache{}
	}
	return &lruCache{timeout: timeout, capacity: capacity, met: metrics(),
		entries: make(map[webgraph.DocID]*list.Element), order: list.New()}
}

// nullCache is the SessionTimeout = 0 client: nothing is ever cached.
type nullCache struct{}

func (nullCache) Touch(time.Time)              {}
func (nullCache) Has(webgraph.DocID) bool      { return false }
func (nullCache) Contains(webgraph.DocID) bool { return false }
func (nullCache) Put(webgraph.DocID, int64)    {}
func (nullCache) Len() int                     { return 0 }
func (nullCache) Bytes() int64                 { return 0 }
func (nullCache) Docs() []webgraph.DocID       { return nil }

type lruEntry struct {
	doc  webgraph.DocID
	size int64
}

type lruCache struct {
	timeout  time.Duration
	capacity int64
	met      *cacheMetrics

	last    time.Time
	started bool
	bytes   int64
	entries map[webgraph.DocID]*list.Element
	order   *list.List // front = most recently used
}

func (c *lruCache) Touch(at time.Time) {
	if c.started && c.timeout != Forever && at.Sub(c.last) >= c.timeout {
		c.purge()
	}
	c.last = at
	c.started = true
}

func (c *lruCache) purge() {
	c.met.purges.Inc()
	c.met.bytes.Add(-float64(c.bytes))
	c.met.docs.Add(-float64(c.order.Len()))
	c.entries = make(map[webgraph.DocID]*list.Element)
	c.order.Init()
	c.bytes = 0
}

func (c *lruCache) Has(doc webgraph.DocID) bool {
	e, ok := c.entries[doc]
	if ok {
		c.order.MoveToFront(e)
		c.met.hits.Inc()
	} else {
		c.met.misses.Inc()
	}
	return ok
}

func (c *lruCache) Contains(doc webgraph.DocID) bool {
	_, ok := c.entries[doc]
	return ok
}

func (c *lruCache) Put(doc webgraph.DocID, size int64) {
	if size < 0 {
		size = 0
	}
	// A document larger than the whole capacity can never fit; caching it
	// would evict everything for nothing. If a resize pushes a cached
	// document over the capacity, it leaves the cache.
	if c.capacity > 0 && size > c.capacity {
		if e, ok := c.entries[doc]; ok {
			ent := e.Value.(*lruEntry)
			c.order.Remove(e)
			delete(c.entries, doc)
			c.bytes -= ent.size
			c.met.bytes.Add(-float64(ent.size))
			c.met.docs.Add(-1)
		}
		return
	}
	if e, ok := c.entries[doc]; ok {
		ent := e.Value.(*lruEntry)
		c.bytes += size - ent.size
		c.met.bytes.Add(float64(size - ent.size))
		ent.size = size
		c.order.MoveToFront(e)
	} else {
		e := c.order.PushFront(&lruEntry{doc: doc, size: size})
		c.entries[doc] = e
		c.bytes += size
		c.met.bytes.Add(float64(size))
		c.met.docs.Add(1)
	}
	if c.capacity > 0 {
		for c.bytes > c.capacity && c.order.Len() > 1 {
			c.evictOldest()
		}
	}
}

func (c *lruCache) evictOldest() {
	e := c.order.Back()
	if e == nil {
		return
	}
	ent := e.Value.(*lruEntry)
	c.order.Remove(e)
	delete(c.entries, ent.doc)
	c.bytes -= ent.size
	c.met.evictions.Inc()
	c.met.bytes.Add(-float64(ent.size))
	c.met.docs.Add(-1)
}

func (c *lruCache) Len() int     { return c.order.Len() }
func (c *lruCache) Bytes() int64 { return c.bytes }

func (c *lruCache) Docs() []webgraph.DocID {
	out := make([]webgraph.DocID, 0, len(c.entries))
	for id := range c.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
