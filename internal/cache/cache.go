// Package cache provides the engine's cross-batch frontier cache: a
// size- and byte-bounded, concurrency-safe LRU of core.Frontier labelings
// keyed by (endpoint, direction, predicate identity), validated by graph
// version.
//
// PathEnum's per-query index rebuild is what makes it real-time, but a
// repeat hub — a popular account queried in every fraud batch, the
// dynamic e-commerce scenario of §7.2 — pays the same BFS labeling on
// every call. The batch subsystem (internal/batch) removes that
// redundancy within one batch; this cache removes it *across* batches and
// across single queries: a frontier built once is served to every later
// query with the same endpoint, direction, compatible bound (bound >= k —
// frontier labels are a sound relaxation, see core.Frontier) and the same
// predicate identity (core.PredicateToken).
//
// Residency is bounded in bytes, not just entries. Every entry is an
// O(|V|) labeling (core.Frontier.MemoryBytes), so an entry-count bound
// alone scales residency with the graph: 64 entries on a 10M-vertex graph
// is ~2.5 GB. A cache built with NewBudgeted evicts from the LRU end
// until a deposit fits its byte bound — in-place replacements included —
// and *refuses* a deposit that cannot fit even in an otherwise empty
// cache (Stats.Rejected) instead of holding an oversize entry. When
// wired to a shared mem.Budget, resident bytes are additionally charged
// to the engine-wide ledger (mem.ClassCache), so the cache competes with
// session scratch and join build sides for one configured limit and a
// deposit is refused when the engine as a whole is out of headroom.
//
// Caching across calls is only safe because every frontier carries the
// graph.Version it was built on: lookups validate the cached version
// against the caller's graph and remove entries that no longer match
// (counted as invalidations). Invalidation is lazy — a Dynamic.Insert
// epoch bump costs nothing until a stale entry is actually touched; there
// is no global sweep. Even a cache bug cannot corrupt results: the core
// executor re-validates every frontier against the execution graph and
// fails the query with graph.ErrStaleEpoch instead of using stale labels.
package cache

import (
	"container/list"
	"sync"

	"pathenum/internal/core"
	"pathenum/internal/graph"
	"pathenum/internal/mem"
)

// DefaultCapacity is the entry bound used when New is given 0. The entry
// count is a secondary bound: each entry holds one O(|V|) labeling
// (4 bytes per vertex), so services on large graphs should bound the
// cache in bytes (NewBudgeted, or EngineConfig.MemoryBudgetBytes at the
// engine level) rather than relying on the entry count alone.
const DefaultCapacity = 64

// Key identifies a cached frontier up to graph version: the BFS origin,
// the direction, and the identity of the edge predicate it was built
// under (core.PredicateNone for unfiltered frontiers). The graph version
// is deliberately not part of the key — one entry per key exists at a
// time, and lookups validate its version lazily, so an epoch bump
// invalidates exactly the entries that are touched again.
type Key struct {
	Origin  graph.VertexID
	Forward bool
	Pred    core.PredicateToken
}

// keyOf derives the cache key a frontier self-describes.
func keyOf(f *core.Frontier) Key {
	return Key{Origin: f.Origin(), Forward: f.IsForward(), Pred: f.PredToken()}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits / Misses count Get outcomes. A Get that finds a stale or
	// too-small entry is a miss.
	Hits   uint64
	Misses uint64
	// Evictions counts entries dropped by the capacity or byte bound
	// (including entries evicted to make room for an in-place
	// replacement that grew).
	Evictions uint64
	// Invalidations counts entries removed because their graph version no
	// longer matched the caller's (lazy epoch invalidation).
	Invalidations uint64
	// Rejected counts deposits refused outright: frontiers that would not
	// fit the byte bound (or the shared budget) even after evicting
	// every other entry.
	Rejected uint64
	// Entries and Capacity describe the current occupancy.
	Entries  int
	Capacity int
	// Bytes is the resident size of all cached labelings; MaxBytes the
	// byte bound (0 = unbounded in bytes).
	Bytes    int64
	MaxBytes int64
}

// entry is one LRU node.
type entry struct {
	key Key
	f   *core.Frontier
}

// FrontierCache is the invalidation-aware LRU. The zero value is not
// usable; create one with New or NewBudgeted. All methods are safe for
// concurrent use.
type FrontierCache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64       // 0 = no byte bound
	budget   *mem.Budget // nil = no shared ledger
	lru      *list.List  // front = most recently used; values are *entry
	byKey    map[Key]*list.Element
	bytes    int64

	hits, misses, evictions, invalidations, rejected uint64
}

// New creates a cache bounded to capacity entries (0 = DefaultCapacity)
// with no byte bound.
func New(capacity int) *FrontierCache {
	return NewBudgeted(capacity, 0, nil)
}

// NewBudgeted creates a cache bounded to capacity entries (0 =
// DefaultCapacity) and, when maxBytes > 0, to maxBytes resident labeling
// bytes — deposits evict from the LRU end until they fit, and a deposit
// larger than the bound itself is refused (Stats.Rejected). A non-nil
// budget additionally charges resident bytes to the shared engine ledger
// under mem.ClassCache: deposits the ledger cannot absorb evict here
// first and are refused if eviction cannot free enough.
func NewBudgeted(capacity int, maxBytes int64, budget *mem.Budget) *FrontierCache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &FrontierCache{
		capacity: capacity,
		maxBytes: maxBytes,
		budget:   budget,
		lru:      list.New(),
		byKey:    make(map[Key]*list.Element, capacity),
	}
}

// Capacity returns the entry bound.
func (c *FrontierCache) Capacity() int { return c.capacity }

// MaxBytes returns the byte bound (0 = unbounded in bytes).
func (c *FrontierCache) MaxBytes() int64 { return c.maxBytes }

// Get returns a cached frontier for key that can serve hop bound k on a
// graph at version ver, or nil. An entry whose version does not match ver
// is removed on the spot (lazy invalidation); an entry with a bound < k
// stays — a later Put with a larger bound will replace it — but reports a
// miss, since the caller must build the larger labeling.
func (c *FrontierCache) Get(key Key, k int, ver graph.Version) *core.Frontier {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil
	}
	ent := el.Value.(*entry)
	if ev := ent.f.GraphVersion(); ev.ValidFor(ver) != nil {
		// A reader pinned to an older epoch (an in-flight batch that
		// captured its view before an UpdateGraph) must not delete an
		// entry newer than itself — current-epoch readers still want it.
		// Only entries at or below the caller's epoch (or of an
		// unrelated lineage) are truly dead.
		if ev.SameLineage(ver) && ev.Epoch() > ver.Epoch() {
			c.misses++
			return nil
		}
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return nil
	}
	if ent.f.Bound() < k {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return ent.f
}

// Fits reports whether Put could hold a frontier of the given size at all:
// it is within the byte bound, and within what the other classes leave of
// the shared budget even with every entry evicted. A caller about to build
// a frontier only to deposit it asks first, so that a deposit Put must
// refuse (Stats.Rejected) is never built.
func (c *FrontierCache) Fits(bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && bytes > c.maxBytes {
		return false
	}
	return c.budget == nil || c.budget.Used()-c.bytes+bytes <= c.budget.Limit()
}

// Put deposits f, keyed by its own (origin, direction, predicate
// identity), and reports whether it is resident afterwards. Within one
// lineage the higher epoch always wins — a deposit from an in-flight
// batch pinned to a pre-update view must not clobber a fresh entry — and
// at equal versions the wider labeling is kept (it serves a superset of
// queries). An unrelated lineage replaces the entry outright (epochs are
// incomparable; the depositor is the more recent user).
//
// Admission is bounded in entries and bytes: inserting beyond capacity
// evicts from the least-recently-used end, and a deposit — including an
// in-place replacement that grows the entry — evicts LRU entries until
// the byte bound and the shared budget can absorb it. A deposit that
// does not fit even then is refused (false, Stats.Rejected) and the
// cache is left as it was. Nil frontiers are ignored.
func (c *FrontierCache) Put(f *core.Frontier) bool {
	if f == nil {
		return false
	}
	key := keyOf(f)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*entry)
		have, dep := ent.f.GraphVersion(), f.GraphVersion()
		if have == dep && ent.f.Bound() >= f.Bound() {
			c.lru.MoveToFront(el)
			return true
		}
		if have.SameLineage(dep) && have.Epoch() > dep.Epoch() {
			return false // stale deposit; keep the newer entry untouched
		}
		// In-place replacement: the byte bound must hold afterwards, so
		// a growth delta is admitted like a fresh deposit — evicting
		// other entries as needed — before the swap. A refusal keeps the
		// existing entry (narrower or stale, both handled lazily by Get).
		delta := f.MemoryBytes() - ent.f.MemoryBytes()
		if delta > 0 {
			if !c.ensureRoomLocked(delta, el) {
				c.rejected++
				return false
			}
		} else if delta < 0 {
			c.budget.Release(mem.ClassCache, -delta)
		}
		c.bytes += delta
		ent.f = f
		c.lru.MoveToFront(el)
		return true
	}
	need := f.MemoryBytes()
	if !c.ensureRoomLocked(need, nil) {
		c.rejected++
		return false
	}
	c.bytes += need
	c.byKey[key] = c.lru.PushFront(&entry{key: key, f: f})
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
	return true
}

// ensureRoomLocked makes room for need more resident bytes under the byte
// bound and the shared budget, evicting from the LRU end (never keep,
// the entry being replaced). It reports false — with the budget left
// unreserved — when eviction cannot free enough; on true the need bytes
// are reserved on the budget and accounted to the caller.
func (c *FrontierCache) ensureRoomLocked(need int64, keep *list.Element) bool {
	if c.maxBytes > 0 && need > c.maxBytes {
		return false // can never fit: refuse without draining the cache
	}
	for {
		if c.maxBytes <= 0 || c.bytes+need <= c.maxBytes {
			if c.budget.TryReserve(mem.ClassCache, need) {
				return true
			}
		}
		el := c.lru.Back()
		if el != nil && el == keep {
			el = el.Prev()
		}
		if el == nil {
			return false
		}
		c.removeLocked(el)
		c.evictions++
	}
}

// removeLocked unlinks an element, returning its bytes to the local count
// and the shared budget; the caller holds c.mu and attributes the removal
// to the right counter.
func (c *FrontierCache) removeLocked(el *list.Element) {
	ent := c.lru.Remove(el).(*entry)
	delete(c.byKey, ent.key)
	bytes := ent.f.MemoryBytes()
	c.bytes -= bytes
	c.budget.Release(mem.ClassCache, bytes)
}

// Len returns the current entry count.
func (c *FrontierCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the counters.
func (c *FrontierCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Rejected:      c.rejected,
		Entries:       c.lru.Len(),
		Capacity:      c.capacity,
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
	}
}
