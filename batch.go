package pathenum

import (
	"cmp"
	"context"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// BatchStats summarizes one batch execution: what deduplication folded and
// how many BFS passes the batch ran against the naive fan-out. Per-query
// timings are on each Result.
type BatchStats struct {
	// Queries is the batch size, duplicates and invalid queries included.
	Queries int
	// Invalid counts queries rejected by validation.
	Invalid int
	// Unique is the number of distinct valid (s, t, k) queries executed.
	Unique int
	// Deduped counts duplicates folded into another position's execution
	// (valid - Unique).
	Deduped int
	// BFSPassesNaive is what the naive fan-out would run: two passes per
	// valid query, duplicates included.
	BFSPassesNaive int
	// BFSPassesRun counts the passes actually run: frontier builds plus the
	// sides the sessions labeled themselves (an oracle infeasibility
	// certificate can still skip a counted session pass). A fully warm
	// repeat batch runs none.
	BFSPassesRun int
	// BFSPassesSaved = BFSPassesNaive - BFSPassesRun: what deduplication,
	// frontier-cache hits and single-flight builds shared.
	BFSPassesSaved int
	// FrontierCacheHits / FrontierCacheMisses count the frontier-cache
	// lookups of this batch's executions; a side served by another
	// query's concurrent build counts as a hit. Both stay zero with the
	// cache disabled or an opaque predicate.
	FrontierCacheHits   int
	FrontierCacheMisses int
	// Elapsed is the wall time of the whole batch execution.
	Elapsed time.Duration
}

// BatchItem is one delivery of a streaming batch execution: the result (or
// error) of the query at original batch position Index, flushed as soon as
// its execution settles. The final item of a stream that ran to the end
// carries the batch statistics instead (Index == -1, Stats != nil); a
// stream abandoned early never delivers it.
type BatchItem struct {
	// Index is the original batch position, or -1 for the final stats
	// item.
	Index int
	// Result is the query's result; duplicate queries share one pointer
	// (read-only), exactly as in ExecuteBatch.
	Result *Result
	// Err is the query's validation or cancellation error; Result is nil
	// when it is set.
	Err error
	// Stats is non-nil only on the final item: the full BatchStats of the
	// execution.
	Stats *BatchStats
}

// ExecuteBatch runs a batch of queries on one captured (graph, oracle)
// view: exact duplicates (same s, t and k) are answered once and fanned
// back out, and the unique queries run across the worker pool in endpoint
// order — sorted by (s, t) — through the same spine as ExecuteWith. What
// queries sharing an endpoint share is the frontier cache: the first one
// to miss on an admitted hub builds its labeling and the rest wait for
// that single build, so a repeat batch over the same hubs executes with
// zero BFS passes (BatchStats.BFSPassesRun and the cache hit counters make
// this visible). Results come back in input order with ExecuteAllContext's
// fail-fast cancellation semantics.
//
// Two semantic differences from ExecuteAllContext follow from
// deduplication: duplicate queries receive the same *Result pointer (treat
// Results as read-only), and opts.Emit — already concurrent and
// unattributed in batch execution — fires once per unique query, not once
// per duplicate.
func (e *Engine) ExecuteBatch(ctx context.Context, queries []Query, opts Options) ([]*Result, []error, *BatchStats) {
	results := make([]*Result, len(queries))
	errs := make([]error, len(queries))
	var stats *BatchStats
	for item := range e.batch(ctx, queries, opts, opBatch) {
		if item.Index < 0 {
			stats = item.Stats
			continue
		}
		results[item.Index], errs[item.Index] = item.Result, item.Err
	}
	return results, errs, stats
}

// StreamBatch is the streaming variant of ExecuteBatch: the same
// deduplication, endpoint order and fail-fast cancellation, but per-query
// results are delivered as their executions settle instead of buffered
// into one slice. Items arrive in completion order, not input order; Index
// maps each back to its batch position, invalid queries are delivered
// first, and duplicates are fanned out as their unique execution settles.
// Breaking out of the loop cancels the remaining work (queries not yet
// started are abandoned, in-flight enumerations stop early) and waits for
// the workers to wind down, so sessions are never leaked. The final item
// carries the BatchStats — see BatchItem.
func (e *Engine) StreamBatch(ctx context.Context, queries []Query, opts Options) iter.Seq[BatchItem] {
	return e.batch(ctx, queries, opts, opStreamBatch)
}

// batch is both batch surfaces: capture one view, validate and dedupe,
// order by endpoint, fan the unique queries out over e.workers through
// e.run, and scatter each settled execution to its batch positions. op
// names the metrics series: one request per call, observeRun once per
// unique execution.
func (e *Engine) batch(ctx context.Context, queries []Query, opts Options, op metricOp) iter.Seq[BatchItem] {
	return func(yield func(BatchItem) bool) {
		e.metrics.requests[op].Inc()
		e.metrics.batchQueries.Add(uint64(len(queries)))
		start := time.Now()
		// Duration covers first pull to iterator exit, abandoned streams
		// included — the consumer's drain is part of a streaming batch.
		defer func() { e.metrics.latency[op].Observe(time.Since(start)) }()
		g, oracle := e.view()
		merged := e.MergeOptions(opts)
		stats := &BatchStats{Queries: len(queries)}

		type unique struct {
			q     Query
			slots []int // batch positions it answers
		}
		var uniq []unique
		seen := make(map[Query]int, len(queries))
		for i, q := range queries {
			if err := q.Validate(g); err != nil {
				stats.Invalid++
				if !yield(BatchItem{Index: i, Err: err}) {
					return
				}
				continue
			}
			u, ok := seen[q]
			if !ok {
				u = len(uniq)
				seen[q] = u
				uniq = append(uniq, unique{q: q})
			}
			uniq[u].slots = append(uniq[u].slots, i)
		}
		stats.Unique = len(uniq)
		stats.Deduped = len(queries) - stats.Invalid - len(uniq)
		stats.BFSPassesNaive = 2 * (len(queries) - stats.Invalid)
		// Queries sharing an endpoint run back to back, so the first miss
		// on a hub is the single-flight build the rest wait on or hit.
		slices.SortStableFunc(uniq, func(a, b unique) int {
			return cmp.Or(cmp.Compare(a.q.S, b.q.S), cmp.Compare(a.q.T, b.q.T))
		})

		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type settled struct {
			u   int
			res *Result
			use frontierUse
			err error
		}
		// Full-size buffer: workers never block on a slow consumer, so a
		// stalled client cannot hold worker slots hostage.
		ch := make(chan settled, len(uniq))
		var next atomic.Int64
		var wg sync.WaitGroup
		for range min(e.workers, len(uniq)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for u := int(next.Add(1) - 1); u < len(uniq); u = int(next.Add(1) - 1) {
					s := settled{u: u, err: ctx.Err()}
					if s.err == nil {
						s.res, s.use, s.err = e.run(ctx, g, oracle, uniq[u].q, merged)
					}
					ch <- s
					// Let the woken consumer run (and possibly cancel) even
					// with every P busy.
					runtime.Gosched()
				}
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		// On early exit, cancel and drain until every worker has exited.
		defer func() {
			cancel()
			for range ch { //nolint:revive // drain until the workers exit
			}
		}()
		for s := range ch {
			e.metrics.observeRun(s.res) // nil-safe
			stats.BFSPassesRun += s.use.passes
			stats.FrontierCacheHits += s.use.hits
			stats.FrontierCacheMisses += s.use.misses
			for _, i := range uniq[s.u].slots {
				if !yield(BatchItem{Index: i, Result: s.res, Err: s.err}) {
					return
				}
			}
		}
		stats.BFSPassesSaved = stats.BFSPassesNaive - stats.BFSPassesRun
		stats.Elapsed = time.Since(start)
		yield(BatchItem{Index: -1, Stats: stats})
	}
}
