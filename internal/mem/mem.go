// Package mem provides the engine's byte-budget accountant: one shared
// pool of bytes that every allocation class — frontier-cache entries,
// per-session scratch, join build sides — charges against, so resident
// memory is bounded by configuration instead of by traffic shape.
//
// The budget is a passive ledger, not an allocator: subsystems reserve
// before materializing and release when they let go, and a failed
// reservation means "degrade gracefully" (the cache refuses the deposit,
// the join falls back to the pinned-equal DFS plan) rather than "error".
// A nil *Budget is the unlimited ledger: every method is safe on it,
// reservations always succeed and nothing is counted, so unbudgeted
// engines pay no atomics on the hot path beyond a nil check.
package mem

import (
	"math"
	"sync/atomic"
)

// Class partitions the budget's usage accounting by subsystem, feeding
// the pathenum_mem_{cache,scratch,build}_bytes gauges. Classes share the
// single limit — they are reporting dimensions, not sub-budgets.
type Class int

const (
	// ClassCache is frontier-cache resident labelings.
	ClassCache Class = iota
	// ClassScratch is pooled per-session O(|V|) scratch (BFS labelings
	// and the index build's position map).
	ClassScratch
	// ClassBuild is join build sides admitted against the estimator's
	// predicted footprint for the duration of their run.
	ClassBuild
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassCache:
		return "cache"
	case ClassScratch:
		return "scratch"
	case ClassBuild:
		return "build"
	default:
		return "unknown"
	}
}

// Budget is a concurrency-safe byte ledger with a hard limit. Create one
// with New; the zero value behaves like an unlimited budget with a zero
// limit and is not intended for use — prefer a nil *Budget for "no
// budget", which all methods accept.
type Budget struct {
	limit int64
	used  atomic.Int64
	class [numClasses]atomic.Int64
}

// New creates a budget limited to limit bytes. A non-positive limit
// returns nil — the unlimited budget every method accepts.
func New(limit int64) *Budget {
	if limit <= 0 {
		return nil
	}
	return &Budget{limit: limit}
}

// Limit returns the byte limit (0 for the nil/unlimited budget).
func (b *Budget) Limit() int64 {
	if b == nil {
		return 0
	}
	return b.limit
}

// Used returns the bytes currently reserved across all classes.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// ClassBytes returns the bytes currently reserved under c.
func (b *Budget) ClassBytes(c Class) int64 {
	if b == nil || c < 0 || c >= numClasses {
		return 0
	}
	return b.class[c].Load()
}

// Remaining returns the unreserved headroom (MaxInt64 when unlimited).
// Must-reservations can push usage past the limit, in which case
// Remaining is 0, never negative.
func (b *Budget) Remaining() int64 {
	if b == nil {
		return math.MaxInt64
	}
	if r := b.limit - b.used.Load(); r > 0 {
		return r
	}
	return 0
}

// TryReserve charges n bytes to class c if the limit allows, reporting
// whether the reservation was made. Non-positive n succeeds without
// charging. The caller owns a successful reservation and must Release
// the same amount when the bytes are freed.
func (b *Budget) TryReserve(c Class, n int64) bool {
	if b == nil || n <= 0 {
		return true
	}
	for {
		used := b.used.Load()
		if used+n > b.limit || used+n < used {
			return false
		}
		if b.used.CompareAndSwap(used, used+n) {
			b.class[c].Add(n)
			return true
		}
	}
}

// Must charges n bytes to class c unconditionally — for allocations the
// engine cannot decline, like the per-worker session scratch that must
// exist to serve any query at all. Usage may exceed the limit afterwards;
// the engine keeps that from happening in practice by flooring the
// configured limit at the scratch requirement.
func (b *Budget) Must(c Class, n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(n)
	b.class[c].Add(n)
}

// Release returns n bytes previously charged to class c.
func (b *Budget) Release(c Class, n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.used.Add(-n)
	b.class[c].Add(-n)
}
