package core

import (
	"context"
	"iter"
	"time"

	"pathenum/internal/graph"
)

// This file implements the pull-based streaming face of the executor
// pipeline. The push-mode enumerators (Algorithm 4 DFS, Algorithm 6 join)
// deliver results through an Emit callback; a stream inverts that into a
// consumer-driven iterator, so the first paths of a heavy query reach the
// caller while enumeration is still running — the real-time delivery the
// paper's title promises, composed with contexts and backpressure instead
// of trapped inside a callback.
//
// Both enumerators are genuinely incremental behind that Emit: the DFS
// emits as it walks, and the join (EnumerateJoinSide) materializes only
// its build side before probing tuple-at-a-time — so a join-planned
// stream's first path costs one half-side build, not a full
// materialize-then-probe pass, and in unbuffered mode the consumer's
// backpressure suspends the probe DFS mid-walk between pulls.
//
// Two delivery modes, one contract, one adapter. Every yielded path is an
// owned copy cut from a PathSlab — no allocation per path (unlike Emit's
// reused slice, streamed paths outlive the enumeration step that produced
// them by design).
//
//   - Unbuffered (StreamConfig.Buffer == 0): the enumeration runs inside
//     the consumer's goroutine and is *suspended* at every yield —
//     range-over-func turns Emit into a coroutine hand-off. Between
//     iterations no enumeration work happens, so a consumer that stops
//     pulling stops the query (perfect backpressure), and breaking out of
//     the loop terminates enumeration immediately via Emit's stop path.
//   - Buffered (Buffer > 0): the unbuffered stream run through Chunked —
//     a producer goroutine handing over []path chunks that grow only while
//     the consumer is busy — and flattened again, so the enumeration runs
//     at most one chunk of min(Buffer, chunkMax) paths ahead. Abandoning
//     the loop cancels the producer and the stream does not return until
//     it has fully stopped, so session buffers are never shared.
type StreamConfig struct {
	// Fwd / Bwd optionally substitute precomputed distance labelings for
	// either BFS pass, with Session.RunShared's compatibility contract.
	Fwd, Bwd *Frontier
	// Constraints, when non-nil, makes the stream a constrained query
	// (Appendix E): its Accumulate and Sequence are checked by the
	// constrained index DFS on the same executor spine — pooled session,
	// oracle, frontiers, timings. Options.Method does not apply then, and
	// the edge predicate stays Options.Predicate (Constraints.Predicate is
	// not read).
	Constraints *Constraints
	// Buffer selects the delivery mode: 0 streams synchronously with the
	// enumeration suspended between pulls; > 0 lets a producer goroutine
	// run ahead by one chunk of up to min(Buffer, chunkMax) paths (see
	// Chunked) — run-ahead is bounded in whole chunks, not single paths.
	Buffer int
	// OnResult, when non-nil, receives the final Result exactly once,
	// after enumeration finishes and before the stream ends — including
	// runs stopped early by the consumer, a limit or cancellation
	// (Result.Completed reports false then). In buffered mode it is
	// called from the producer goroutine.
	OnResult func(*Result)
	// Began optionally anchors Result.Timings.FirstPath: when set, the
	// first-path latency is measured from this instant (a caller's
	// request-entry timestamp) instead of the stream's first pull.
	Began time.Time
	// Observer, when non-nil, receives the settled run for latency
	// accounting — a persistent hook (no per-stream closure) fired once
	// with the Result, exactly where OnResult fires. Implementations
	// must be safe for concurrent use; buffered streams invoke it from
	// the producer goroutine.
	Observer RunObserver
}

// RunObserver is the metrics seam of a stream: ObserveStream receives
// the final Result (never nil), the first-path latency and the
// end-to-end stream duration, both measured from StreamConfig.Began
// (or the first pull when Began is zero). firstPath is 0 when no path
// was delivered.
type RunObserver interface {
	ObserveStream(res *Result, firstPath, total time.Duration)
}

// Stream returns a lazy path stream for q: nothing runs until the first
// pull. Each iteration yields one result path (a fresh slice owned by the
// consumer) or a terminal error (invalid query, incompatible frontier,
// stale oracle); after an error the stream ends. Paths are cut from shared
// slabs of at most slabMax vertices, capacity-clipped so an append cannot
// reach a neighbour; retaining one path keeps its slab (≤ 8 KB) alive.
// Context cancellation and deadlines mirror RunContext: cancellation
// mid-run stops the enumeration early without an error — the partial
// delivery is the answer, and OnResult reports Completed == false — while
// a context already done before the run starts surfaces its error as the
// terminal yield (no work happens). Options.Emit and Options.Limit keep
// their meaning except that Emit is replaced by the yield (a configured
// Emit is ignored).
//
// The session's buffers are in use until the iteration ends; like every
// other Session entry point, only one run may be active at a time.
func (s *Session) Stream(ctx context.Context, q Query, opts Options) iter.Seq2[[]graph.VertexID, error] {
	return s.StreamWith(ctx, q, opts, StreamConfig{})
}

// StreamWith is Stream with explicit stream configuration: shared
// frontiers for either BFS side, the buffered delivery mode and the
// final-Result hook. See StreamConfig.
func (s *Session) StreamWith(ctx context.Context, q Query, opts Options, sc StreamConfig) iter.Seq2[[]graph.VertexID, error] {
	run := func(ctx context.Context, emit func([]graph.VertexID) bool) (*Result, error) {
		opts.Emit = emit
		return s.ex.executeShared(ctx, q, opts, sc.Fwd, sc.Bwd, sc.Constraints)
	}
	return makeStream(ctx, sc, run)
}

// slabMax is the largest slab a PathSlab allocates, in vertices (8 KB):
// big enough that a heavy stream allocates once per few hundred paths,
// small enough that a consumer retaining one path pins little.
const slabMax = 2048

// PathSlab hands out owned copies of paths without an allocation per
// path: a path is copied into the tail of the current slab and returned as
// a capacity-clipped slice of it, so appending to one path cannot reach
// its neighbour. Slabs double from one path's worth up to slabMax vertices
// — a query with a handful of results never pays for a full slab — and are
// never reused: a full slab is simply dropped, and lives as long as any
// path cut from it. The zero value is ready to use.
type PathSlab struct {
	free []graph.VertexID // unused tail of the current slab
	size int              // length the current slab was allocated with
}

// Copy returns a copy of p that the caller owns.
func (s *PathSlab) Copy(p []graph.VertexID) []graph.VertexID {
	n := len(p)
	if n > len(s.free) {
		s.size = max(n, min(2*s.size, slabMax))
		s.free = make([]graph.VertexID, s.size)
	}
	out := s.free[:n:n]
	copy(out, p)
	s.free = s.free[n:]
	return out
}

// streamState is the per-stream mutable state shared between the emit
// closure and the stream body — one struct so the closure capture costs a
// single heap cell. firstNs needs no atomic: emit and the post-run stamp
// always execute on the same goroutine.
type streamState struct {
	abandoned bool
	began     time.Time
	firstNs   int64
	slab      PathSlab
}

// noteFirst stamps the first-path latency on the first emit.
func (st *streamState) noteFirst() {
	if st.firstNs == 0 {
		st.firstNs = int64(time.Since(st.began))
	}
}

// settle attaches the stream-level timing to the finished run's Result
// and fires the observer and OnResult hooks.
func (st *streamState) settle(res *Result, obs RunObserver, onResult func(*Result)) {
	if res != nil {
		res.Timings.FirstPath = time.Duration(st.firstNs)
		if obs != nil {
			obs.ObserveStream(res, res.Timings.FirstPath, time.Since(st.began))
		}
	}
	if onResult != nil {
		onResult(res)
	}
}

// pathSeq is the element-wise stream type every layer passes around.
type pathSeq = iter.Seq2[[]graph.VertexID, error]

// makeStream builds the iterator over any push-mode runner. run must
// execute the query, delivering each path to emit (reused-slice Emit
// semantics: the stream copies every path into its slab) and honoring
// emit's false return as an immediate stop; it observes the context it is
// passed, which in buffered mode is a child of the caller's that Chunked
// cancels when the consumer leaves early.
func makeStream(ctx context.Context, sc StreamConfig, run func(context.Context, func([]graph.VertexID) bool) (*Result, error)) pathSeq {
	if buffer := sc.Buffer; buffer > 0 {
		sc.Buffer = 0
		chunks := Chunked(ctx, buffer, func(pctx context.Context) pathSeq {
			return makeStream(pctx, sc, run)
		})
		return func(yield func([]graph.VertexID, error) bool) {
			for chunk, err := range chunks {
				if err != nil {
					yield(nil, err)
					return
				}
				for _, p := range chunk {
					if !yield(p, nil) {
						return
					}
				}
			}
		}
	}
	// Hoisted so the returned closure captures three scalars, not the
	// whole StreamConfig (with its frontier pointers).
	onResult, observer, began := sc.OnResult, sc.Observer, sc.Began
	return func(yield func([]graph.VertexID, error) bool) {
		st := streamState{began: began}
		if st.began.IsZero() {
			st.began = time.Now()
		}
		res, err := run(ctx, func(p []graph.VertexID) bool {
			st.noteFirst()
			if !yield(st.slab.Copy(p), nil) {
				st.abandoned = true
				return false
			}
			return true
		})
		if err != nil {
			if !st.abandoned {
				yield(nil, err)
			}
			return
		}
		st.settle(res, observer, onResult)
	}
}

// chunkMax caps a Chunked chunk, the one hand-off between goroutines, at
// the size where the per-path share of the channel operation is negligible.
const chunkMax = 256

// Chunked is the one producer/consumer adapter: it runs the stream open
// returns in a producer goroutine and yields its paths in chunks of at
// most min(limit, chunkMax). Chunks form only under backpressure — after
// every path the producer offers what it holds without blocking, so an
// idle consumer receives each path the moment it exists (a chunk of one:
// no timer, a trickling enumeration is never held back), while a busy
// consumer lets the chunk grow to the cap before the producer blocks. A
// terminal error of the inner stream is yielded last, with a nil chunk.
//
// A chunk is valid until the next iteration; the paths in it stay the
// consumer's. open receives a child of ctx that is cancelled when the
// consumer leaves early, and the iterator does not return before the
// producer has exited — whoever owns the inner stream's resources (a
// pooled session) may release them as soon as the range ends. Whatever the
// inner stream calls back (OnResult, an observer) runs on the producer
// goroutine.
func Chunked(ctx context.Context, limit int, open func(context.Context) pathSeq) iter.Seq2[[][]graph.VertexID, error] {
	limit = max(1, min(limit, chunkMax))
	return func(yield func([][]graph.VertexID, error) bool) {
		pctx, cancel := context.WithCancel(ctx)
		ch := make(chan [][]graph.VertexID)
		quit := make(chan struct{}) // closed when the consumer leaves
		var perr error              // written before close(ch), read after it
		go func() {
			defer close(ch)
			// ch is unbuffered: a send completes when the consumer comes back
			// for more, finished with the previous chunk — so two backing
			// arrays alternate and a stream allocates no chunk per hand-off.
			var chunk, spare [][]graph.VertexID
			for p, err := range open(pctx) {
				if err != nil {
					perr = err
					return
				}
				chunk = append(chunk, p)
				if len(chunk) < limit {
					select {
					case ch <- chunk:
						chunk, spare = spare[:0], chunk
					default:
					}
					continue
				}
				select {
				case ch <- chunk:
					chunk, spare = spare[:0], chunk
				case <-quit:
					return
				}
			}
			if len(chunk) > 0 {
				select {
				case ch <- chunk:
				case <-quit:
				}
			}
		}()
		// Whatever path exits the loop, stop the producer and wait for the
		// channel to close before returning the iteration.
		defer func() {
			close(quit)
			cancel()
			for range ch { //nolint:revive // drain until the producer exits
			}
		}()
		for chunk := range ch {
			if !yield(chunk, nil) {
				return
			}
		}
		if perr != nil {
			yield(nil, perr)
		}
	}
}
