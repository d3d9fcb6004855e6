// Package cache implements the framework's hot-path read acceleration: a
// generic, race-safe, sharded LRU with generation-based invalidation and a
// built-in singleflight group that coalesces concurrent misses for the same
// key into one inner call.
//
// Real DOSN workloads are heavily skewed toward a small hot set of popular
// profiles (LibreSocial reports read-mostly, Zipf-like access in its P2P
// OSN deployment; DECENT identifies object-read latency as the dominant
// cost of decentralized enforcement), and the paper motivates hybrid
// encryption precisely because asymmetric operations are too expensive to
// pay per read. Three instances of this cache thread through the stack: the
// DHT route cache (key → successor resolution), the resilient KV's
// verified-value cache, and the privacy layer's envelope-key cache.
// Experiment E21 measures what they buy.
//
// Determinism contract: shard assignment is a pure function of (seed, key),
// and each shard's eviction order is a pure function of the sequence of
// operations that reached that shard. Callers that partition keys across
// goroutines by shard therefore observe identical eviction orders at any
// parallelism level (TestCacheEvictionOrderShardedWorkers1vs8); serial
// callers observe identical orders across runs.
//
// A nil *Cache is valid and disabled: Get always misses, Put and the
// invalidation calls are no-ops, and Do simply invokes the fill function —
// call sites need no enabled/disabled branching.
package cache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"godosn/internal/telemetry"
)

// Config parameterizes one cache instance.
type Config struct {
	// Capacity is the total entry budget across all shards (split evenly;
	// each shard holds at least one entry). Capacity <= 0 disables the
	// cache: New returns nil, and every method on a nil cache is a safe
	// no-op.
	Capacity int
	// Shards is the number of independently locked LRU segments (default
	// 8). More shards cut lock contention on concurrent hot paths at the
	// cost of a slightly less global LRU approximation.
	Shards int
	// Seed perturbs the key → shard mapping deterministically, so two
	// caches with different seeds spread the same keys differently while
	// each remains reproducible run to run.
	Seed int64
}

// Enabled reports whether this configuration describes a live cache.
func (c Config) Enabled() bool { return c.Capacity > 0 }

// DefaultShards is used when Config.Shards is unset.
const DefaultShards = 8

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts Get/Do calls served from a resident entry.
	Hits int64
	// Misses counts Get/Do calls that found no usable entry.
	Misses int64
	// Evictions counts entries displaced by capacity pressure.
	Evictions int64
	// Invalidations counts entries dropped by Invalidate plus whole-cache
	// generation bumps (each bump counts once).
	Invalidations int64
	// Coalesced counts Do calls that piggy-backed on another caller's
	// in-flight fill instead of issuing their own.
	Coalesced int64
}

// HitRate returns Hits / (Hits + Misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Outcome classifies how one Do call was served.
type Outcome int

// Do outcomes.
const (
	// Hit: served from a resident entry, fill not invoked.
	Hit Outcome = iota
	// Filled: this caller invoked the fill function.
	Filled
	// Coalesced: another caller's in-flight fill supplied the result.
	Coalesced
)

// String renders the outcome as a span/event tag.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return "fill"
	}
}

// entry is one resident value on a shard's LRU list.
type entry[V any] struct {
	key        string
	val        V
	gen        uint64
	prev, next *entry[V]
}

// shard is one independently locked LRU segment.
type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	// head is most-recently used, tail least-recently used.
	head, tail *entry[V]
	cap        int
}

// call is one in-flight fill, shared by coalesced waiters.
type call[V any] struct {
	done    chan struct{}
	val     V
	err     error
	noStore bool // key invalidated while the fill ran: do not cache
}

// Cache is a sharded LRU over string keys. All methods are safe for
// concurrent use and safe on a nil receiver (disabled cache).
type Cache[V any] struct {
	shards []*shard[V]
	seed   uint64
	gen    atomic.Uint64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	coalesced     atomic.Int64

	flightMu sync.Mutex
	flight   map[string]*call[V]

	tel atomic.Pointer[cacheTelemetry]

	evictMu sync.Mutex
	onEvict func(key string)
}

// cacheTelemetry holds resolved registry counters mirroring Stats.
type cacheTelemetry struct {
	hits, misses, evictions, invalidations, coalesced *telemetry.Counter
}

// New creates a cache, or returns nil (a valid, disabled cache) when the
// config's Capacity is not positive.
func New[V any](cfg Config) *Cache[V] {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Shards < 1 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards > cfg.Capacity {
		cfg.Shards = cfg.Capacity
	}
	c := &Cache[V]{
		shards: make([]*shard[V], cfg.Shards),
		seed:   uint64(cfg.Seed),
		flight: make(map[string]*call[V]),
	}
	per := cfg.Capacity / cfg.Shards
	extra := cfg.Capacity % cfg.Shards
	for i := range c.shards {
		capi := per
		if i < extra {
			capi++
		}
		c.shards[i] = &shard[V]{entries: make(map[string]*entry[V], capi), cap: capi}
	}
	return c
}

// SetTelemetry mirrors the cache's counters into reg under the given metric
// prefix (e.g. "dht_route_cache" yields "dht_route_cache_hits_total").
// Counters record deltas from this call on. Nil-safe; reg nil disables.
func (c *Cache[V]) SetTelemetry(reg *telemetry.Registry, prefix string) {
	if c == nil {
		return
	}
	if reg == nil {
		c.tel.Store(nil)
		return
	}
	c.tel.Store(&cacheTelemetry{
		hits:          reg.Counter(prefix + "_hits_total"),
		misses:        reg.Counter(prefix + "_misses_total"),
		evictions:     reg.Counter(prefix + "_evictions_total"),
		invalidations: reg.Counter(prefix + "_invalidations_total"),
		coalesced:     reg.Counter(prefix + "_coalesced_total"),
	})
}

// SetOnEvict installs a hook observing capacity evictions in order, called
// with the evicted key while no shard lock is held. Test instrumentation
// for the eviction-order determinism contract. Nil-safe.
func (c *Cache[V]) SetOnEvict(fn func(key string)) {
	if c == nil {
		return
	}
	c.evictMu.Lock()
	c.onEvict = fn
	c.evictMu.Unlock()
}

// count bumps one counter pair (local atomic + registry mirror).
func (c *Cache[V]) count(local *atomic.Int64, pick func(*cacheTelemetry) *telemetry.Counter) {
	local.Add(1)
	if t := c.tel.Load(); t != nil {
		pick(t).Inc()
	}
}

// Stats returns a snapshot of the counters. Nil-safe (zero Stats).
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Coalesced:     c.coalesced.Load(),
	}
}

// Len returns the number of resident entries, including any invalidated by
// a generation bump but not yet lazily purged. Nil-safe (0).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// shardOf maps a key to its shard: FNV-1a over the key, perturbed by the
// seed — a pure function of (seed, key), so placement and therefore
// per-shard eviction order is reproducible across runs.
func (c *Cache[V]) shardOf(key string) *shard[V] {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ c.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return c.shards[h%uint64(len(c.shards))]
}

// Get returns the cached value for key. Entries from an older generation
// are purged and miss. Nil-safe (always a miss, uncounted).
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	gen := c.gen.Load()
	s := c.shardOf(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && e.gen != gen {
		s.remove(e)
		ok = false
	}
	if !ok {
		s.mu.Unlock()
		c.count(&c.misses, func(t *cacheTelemetry) *telemetry.Counter { return t.misses })
		return zero, false
	}
	s.moveToFront(e)
	v := e.val
	s.mu.Unlock()
	c.count(&c.hits, func(t *cacheTelemetry) *telemetry.Counter { return t.hits })
	return v, true
}

// Put inserts or refreshes key under the current generation, evicting the
// shard's least-recently-used entry on overflow. Nil-safe (no-op).
func (c *Cache[V]) Put(key string, val V) {
	if c == nil {
		return
	}
	c.putGen(key, val, c.gen.Load())
}

// putGen inserts key=val tagged with gen, dropping the write silently when
// the cache has moved past gen — the fence that keeps a fill started before
// an invalidation from resurrecting stale data after it.
func (c *Cache[V]) putGen(key string, val V, gen uint64) {
	if c.gen.Load() != gen {
		return
	}
	s := c.shardOf(key)
	var (
		evicted string
		evict   bool
	)
	s.mu.Lock()
	// Re-check under the shard lock: a concurrent bump between the check
	// above and acquiring the lock must still win. A bump taken after this
	// point invalidates the entry lazily via its gen tag.
	if c.gen.Load() != gen {
		s.mu.Unlock()
		return
	}
	if e, ok := s.entries[key]; ok {
		e.val = val
		e.gen = gen
		s.moveToFront(e)
	} else {
		// A full shard evicts its least-recently-used entry first and
		// reuses the node for the new key.
		e := s.tail
		if len(s.entries) < s.cap {
			e = new(entry[V])
		} else {
			s.remove(e)
			evicted, evict = e.key, true
		}
		*e = entry[V]{key: key, val: val, gen: gen}
		s.entries[key] = e
		s.pushFront(e)
	}
	s.mu.Unlock()
	if evict {
		c.count(&c.evictions, func(t *cacheTelemetry) *telemetry.Counter { return t.evictions })
		c.evictMu.Lock()
		fn := c.onEvict
		c.evictMu.Unlock()
		if fn != nil {
			fn(evicted)
		}
	}
}

// Invalidate drops key's entry, and marks any in-flight fill for key so its
// result is not cached — a lookup racing a store can complete, but its
// possibly-stale value never lands. Nil-safe (no-op).
func (c *Cache[V]) Invalidate(key string) {
	if c == nil {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.remove(e)
	}
	s.mu.Unlock()
	c.flightMu.Lock()
	if cl, inflight := c.flight[key]; inflight {
		cl.noStore = true
	}
	c.flightMu.Unlock()
	if ok {
		c.count(&c.invalidations, func(t *cacheTelemetry) *telemetry.Counter { return t.invalidations })
	}
}

// BumpGeneration invalidates every resident entry at once (lazily: entries
// are purged as they are next touched) and fences all in-flight fills —
// results computed against the old world never land. Counted as one
// invalidation. Nil-safe (no-op).
func (c *Cache[V]) BumpGeneration() {
	if c == nil {
		return
	}
	c.gen.Add(1)
	c.count(&c.invalidations, func(t *cacheTelemetry) *telemetry.Counter { return t.invalidations })
}

// Do returns the cached value for key, or coalesces concurrent misses into
// one fill call: the first caller runs fill, every concurrent caller for
// the same key waits for that result. A successful fill's value is cached
// unless the key (or the whole cache) was invalidated while the fill ran.
// Fill errors are returned to every waiter and never cached. On a nil
// cache Do simply invokes fill. The returned Outcome says how this call
// was served.
func (c *Cache[V]) Do(key string, fill func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := fill()
		return v, Filled, err
	}
	if v, ok := c.Get(key); ok {
		return v, Hit, nil
	}
	c.flightMu.Lock()
	if cl, ok := c.flight[key]; ok {
		c.flightMu.Unlock()
		<-cl.done
		c.count(&c.coalesced, func(t *cacheTelemetry) *telemetry.Counter { return t.coalesced })
		return cl.val, Coalesced, cl.err
	}
	cl := &call[V]{done: make(chan struct{})}
	c.flight[key] = cl
	gen := c.gen.Load()
	c.flightMu.Unlock()

	cl.val, cl.err = fill()

	c.flightMu.Lock()
	noStore := cl.noStore
	c.flightMu.Unlock()
	// Store before leaving the flight table: a caller arriving in between
	// must find either the entry or the in-flight call, never neither (it
	// would run a second fill).
	if cl.err == nil && !noStore {
		c.putGen(key, cl.val, gen)
	}
	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(cl.done)
	return cl.val, Filled, cl.err
}

// String renders the cache for debugging.
func (c *Cache[V]) String() string {
	if c == nil {
		return "cache(disabled)"
	}
	return fmt.Sprintf("cache(shards=%d len=%d gen=%d)", len(c.shards), c.Len(), c.gen.Load())
}

// ---- intrusive LRU list (call with shard lock held) ----

func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[V]) remove(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
}

func (s *shard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}
