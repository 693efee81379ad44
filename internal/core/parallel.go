package core

import (
	"sync"
	"sync/atomic"

	"pathenum/internal/graph"
)

// This file implements intra-query parallel enumeration: one heavy query's
// work fanned across shard goroutines and merged back into a single
// Emit/Limit-observing delivery. Both enumeration methods expose the same
// natural partition point — the probe walks of the tuple-at-a-time join
// (one independent DFS per probe start) and the first-hop subtrees of the
// index DFS — so a shard is simply a contiguous-by-round-robin slice of
// those start positions, running with its own Counters and visited
// scratch against the shared read-only Index (and, for the join, the
// shared build side).
//
// The merge, not the shards, owns the consumer-facing semantics:
// RunControl.Emit is called only from the merging goroutine (the
// consumer's own goroutine under an unbuffered stream, so backpressure
// and mid-iteration abandonment behave exactly like the sequential path),
// and RunControl.Limit is enforced at the merge point so "stop after n
// results" means n results total, not n per shard. Shards deliver in
// chunks whose target size doubles from 1 — the first chunk is a single
// path, preserving time-to-first-path, while steady-state drain amortizes
// the channel hand-off across chunkMax paths.
//
// Ownership contract: unlike the sequential enumerators' reused Emit
// slice, every path a parallel entry point hands to Emit is owned by the
// callee — a capacity-clipped slice of a PathSlab that is never recycled
// (a shard's buffer cannot be reused under the consumer's feet once it
// crosses the merge channel), at the cost of one slab allocation per few
// hundred paths instead of one per path. The sequential fallbacks taken
// when no fan-out is possible wrap Emit to keep that contract, so callers
// may rely on it whenever they requested parallelism.

// mergeStopPollInterval is how many merged chunks pass between
// ShouldStop polls at the merge point. Shards poll their own amortized
// hook, so this only bounds how long a cancelled run keeps *delivering*
// already-produced paths.
const mergeStopPollInterval = 8

// ownedEmit wraps ctl so a sequential fallback keeps the parallel entry
// points' ownership contract: every path handed to Emit is the callee's.
func ownedEmit(ctl RunControl) RunControl {
	if ctl.Emit == nil {
		return ctl
	}
	emit := ctl.Emit
	var slab PathSlab
	ctl.Emit = func(p []graph.VertexID) bool { return emit(slab.Copy(p)) }
	return ctl
}

// shardSlot is one shard's private state in runShards, padded to 128 bytes
// so that no two shards' counters share a cache line: a shard writes them
// on every edge and path, and shards sharing a line serialize on it.
type shardSlot struct {
	ctr       Counters
	pending   uint64 // counting with a limit: results not yet added to the shared count
	completed bool
	_         [128 - 40]byte
}

// runShards fans run across nShards goroutines and merges their
// deliveries under ctl's contract. Each shard receives its index, a
// shard-local RunControl (Emit delivering into the merge, ShouldStop
// folding the caller's hook with the merge's stop signal, Limit zero —
// the merge enforces it) and a shard-local Counters; it must report
// whether it ran to completion. runShards returns true only when every
// shard completed and the merge itself did not stop (limit, consumer
// stop or cancellation), and it never returns before every shard
// goroutine has exited — abandoning consumers cannot leak goroutines.
//
// Counter aggregation: EdgesAccessed and InvalidPartials are summed from
// the shard-local counters exactly once each. Results is owned by
// whoever observed the deliveries — the merge loop when Emit is set, a
// shared count clamped to Limit in counting-with-limit mode, and the
// shard-local sums when free-running — so on completed runs it equals
// the sequential count exactly.
func runShards(nShards int, ctl RunControl, ctr *Counters, run func(shard int, sctl RunControl, sctr *Counters) bool) bool {
	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }
	defer stop()

	// stopper is the shard-side ShouldStop: the merge's stop signal or the
	// caller's hook (newStopper closures are goroutine-safe).
	stopper := func() bool {
		select {
		case <-done:
			return true
		default:
		}
		return ctl.ShouldStop != nil && ctl.ShouldStop()
	}

	slots := make([]shardSlot, nShards)
	var wg sync.WaitGroup

	if ctl.Emit == nil {
		// Counting modes: no paths cross goroutines. With a Limit, a shard
		// adds its results to a shared count in blocks of up to chunkMax and
		// stops everyone once the count reaches the limit. Blocks are
		// committed, not reserved, so the run never stops short of the limit;
		// the overshoot (under a block per shard) is clamped out of Results,
		// which is therefore exact, and a run whose total reaches the limit
		// reports incomplete exactly like the sequential one.
		var delivered atomic.Uint64
		limit := ctl.Limit
		block := min(limit, chunkMax)
		for i := 0; i < nShards; i++ {
			wg.Add(1)
			go func(sl *shardSlot, i int) {
				defer wg.Done()
				sctl := RunControl{ShouldStop: stopper}
				if limit > 0 {
					commit := func() bool {
						n := delivered.Add(sl.pending)
						sl.pending = 0
						return n < limit
					}
					sctl.Emit = func([]graph.VertexID) bool {
						if sl.pending++; sl.pending < block || commit() {
							return true
						}
						stop()
						return false
					}
					defer commit()
				}
				sl.completed = run(i, sctl, &sl.ctr)
			}(&slots[i], i)
		}
		wg.Wait()
		all := true
		for i := range slots {
			ctr.EdgesAccessed += slots[i].ctr.EdgesAccessed
			ctr.InvalidPartials += slots[i].ctr.InvalidPartials
			if limit == 0 {
				ctr.Results += slots[i].ctr.Results
			}
			all = all && slots[i].completed
		}
		if limit > 0 {
			n := delivered.Load()
			all = all && n < limit
			ctr.Results += min(n, limit)
		}
		return all
	}

	// Delivery mode: shards push chunks of owned paths over an unbuffered
	// channel; the merge loop (the caller's goroutine) emits them one by
	// one, so under an unbuffered stream the consumer's backpressure
	// reaches straight through to the shards — at most one in-flight chunk
	// per shard runs ahead of the consumer.
	ch := make(chan [][]graph.VertexID)
	for i := 0; i < nShards; i++ {
		wg.Add(1)
		go func(sl *shardSlot, i int) {
			defer wg.Done()
			target := 1
			buf := make([][]graph.VertexID, 0, 1)
			var slab PathSlab
			flush := func() bool {
				if len(buf) == 0 {
					return true
				}
				select {
				case ch <- buf:
				case <-done:
					return false
				}
				if target < chunkMax {
					target *= 2
				}
				buf = make([][]graph.VertexID, 0, target)
				return true
			}
			sctl := RunControl{
				ShouldStop: stopper,
				Emit: func(p []graph.VertexID) bool {
					buf = append(buf, slab.Copy(p))
					if len(buf) < target {
						return true
					}
					return flush()
				},
			}
			sl.completed = run(i, sctl, &sl.ctr)
			flush() // deliver the partial tail chunk (dropped if stopping)
		}(&slots[i], i)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()

	stopped := false
	chunks := 0
	for chunk := range ch {
		if stopped {
			continue // draining: shards are unwinding, discard the surplus
		}
		for _, p := range chunk {
			ctr.Results++
			if !ctl.Emit(p) {
				stopped = true
			} else if ctl.Limit > 0 && ctr.Results >= ctl.Limit {
				stopped = true
			}
			if stopped {
				stop()
				break
			}
		}
		chunks++
		if !stopped && chunks%mergeStopPollInterval == 0 && ctl.ShouldStop != nil && ctl.ShouldStop() {
			stopped = true
			stop()
		}
	}
	// The channel is closed: every shard has exited and its counters and
	// completion flag are settled (the close orders the reads).
	all := !stopped
	for i := range slots {
		ctr.EdgesAccessed += slots[i].ctr.EdgesAccessed
		ctr.InvalidPartials += slots[i].ctr.InvalidPartials
		all = all && slots[i].completed
	}
	return all
}

// EnumerateDFSParallel is EnumerateDFS fanned across up to parallelism
// goroutines: the first-hop neighbor set of s partitions the search into
// independent subtrees (s appears in no other position — the index has no
// edges into s — so shards share nothing but the read-only index), dealt
// round-robin so heavy and light subtrees spread across shards. Emit and
// Limit are enforced at the fan-in merge (see runShards); on completed
// runs Results, EdgesAccessed and InvalidPartials equal the sequential
// run exactly. When parallelism or the root set admits no fan-out it
// falls back to the sequential search. Every path handed to Emit is a
// fresh slice owned by the callee, fallback included.
func EnumerateDFSParallel(ix *Index, parallelism int, ctl RunControl, ctr *Counters) bool {
	if ctr == nil {
		ctr = &Counters{}
	}
	if ix.Empty() {
		return true
	}
	roots := ix.outUpToPos(ix.sPos, ix.k-1)
	shards := min(parallelism, len(roots))
	if shards <= 1 {
		return EnumerateDFS(ix, ownedEmit(ctl), ctr)
	}
	// The root scan happens once, here, not per shard.
	ctr.EdgesAccessed += uint64(len(roots))
	return runShards(shards, ctl, ctr, func(i int, sctl RunControl, sctr *Counters) bool {
		ds := newDFSSearcher(ix, sctl, sctr)
		for j := i; j < len(roots); j += shards {
			wp := roots[j]
			ds.path = append(ds.path, ix.verts[wp])
			ds.onPath[wp] = true
			sub := ds.search(wp)
			ds.onPath[wp] = false
			ds.path = ds.path[:1]
			if sub == 0 {
				sctr.InvalidPartials++
			}
			if ds.stopped {
				return false
			}
		}
		return true
	})
}

// EnumerateJoinSideParallel is EnumerateJoinSide with the probe side
// fanned across up to parallelism goroutines. The build side is
// materialized once, sequentially, on the calling goroutine — after
// build() its tuples and buckets are read-only and shared by every probe
// shard — then the probe start positions (the distinct cut vertices of Ra
// when building left, the first-hop neighbors of s when building right)
// are dealt round-robin, each shard probing with its own walk buffer,
// validation scratch and Counters. Emit/Limit follow the merge contract
// of runShards; stats, when non-nil, are filled on every exit path with
// the build footprint counted exactly once and each shard's probe-local
// stats summed exactly once, however early any shard stopped. Paths
// handed to Emit are fresh slices owned by the callee, also when nothing
// fans out and the builder probes alone.
func EnumerateJoinSideParallel(ix *Index, cut int, side BuildSide, parallelism int, ctl RunControl, ctr *Counters, stats *JoinStats) (bool, error) {
	return enumerateJoin(ix, cut, side, parallelism, 0, ctl, ownedEmit(ctl), ctr, stats)
}
