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
// Two delivery modes share one contract:
//
//   - Unbuffered (StreamConfig.Buffer == 0): the enumeration runs inside
//     the consumer's goroutine and is *suspended* at every yield —
//     range-over-func turns Emit into a coroutine hand-off. Between
//     iterations no enumeration work happens, so a consumer that stops
//     pulling stops the query (perfect backpressure), and breaking out of
//     the loop terminates enumeration immediately via Emit's stop path.
//   - Buffered (Buffer > 0): the enumeration runs in a producer goroutine
//     feeding a channel of capacity Buffer, so it can run at most Buffer
//     paths ahead of the consumer — bounded pipelining for consumers with
//     per-item latency (an NDJSON flush, a network write). Abandoning the
//     loop cancels the producer and the stream does not return until it
//     has fully stopped, so session buffers are never shared.
//
// In both modes every yielded path is a fresh copy owned by the consumer
// (unlike Emit's reused slice): streamed paths outlive the enumeration
// step that produced them by design.
type StreamConfig struct {
	// Fwd / Bwd optionally substitute precomputed distance labelings for
	// either BFS pass, with Session.RunShared's compatibility contract.
	Fwd, Bwd *Frontier
	// Constraints, when non-nil, makes the stream a constrained query
	// (Appendix E): its Accumulate and Sequence are checked by the
	// constrained index DFS on the same executor spine — pooled session,
	// oracle, frontiers, timings. Options.Method and Options.Parallelism do
	// not apply then, and the edge predicate stays Options.Predicate
	// (Constraints.Predicate is not read).
	Constraints *Constraints
	// Buffer selects the delivery mode: 0 streams synchronously with the
	// enumeration suspended between pulls; > 0 lets a producer goroutine
	// run up to Buffer paths ahead.
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
// stale oracle); after an error the stream ends. Context cancellation and
// deadlines mirror RunContext: cancellation mid-run stops the enumeration
// early without an error — the partial delivery is the answer, and
// OnResult reports Completed == false — while a context already done
// before the run starts surfaces its error as the terminal yield (no
// work happens). Options.Emit and Options.Limit keep their meaning
// except that Emit is replaced by the yield (a configured Emit is
// ignored).
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
	// A parallel run already hands over fresh slices (the parallel
	// ownership contract), so the stream skips its defensive per-path
	// copy — the merge-side copy is the only one paid.
	return makeStream(ctx, sc, run, opts.Parallelism > 1 && sc.Constraints == nil)
}

// streamState is the per-stream mutable state shared between the emit
// closure and the stream body — one struct so the closure capture costs a
// single heap cell. firstNs needs no atomic: emit and the post-run stamp
// always execute on the same goroutine (the consumer's in unbuffered
// mode, the producer's in buffered mode).
type streamState struct {
	abandoned bool
	began     time.Time
	firstNs   int64
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

// makeStream builds the iterator over any push-mode runner. run must
// execute the query, delivering each path to emit (reused-slice Emit
// semantics, unless owned declares the runner already hands over fresh
// slices — the parallel enumerators' contract) and honoring emit's false
// return as an immediate stop; it observes the context it is passed,
// which in buffered mode is a child of the caller's that the stream
// cancels when the consumer leaves early.
func makeStream(ctx context.Context, sc StreamConfig, run func(context.Context, func([]graph.VertexID) bool) (*Result, error), owned bool) iter.Seq2[[]graph.VertexID, error] {
	if sc.Buffer > 0 {
		return bufferedStream(ctx, sc, run, owned)
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
			if !owned {
				p = append([]graph.VertexID(nil), p...)
			}
			if !yield(p, nil) {
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

// streamItem is one delivery slot of the buffered mode: a path or a
// terminal error, never both.
type streamItem struct {
	path []graph.VertexID
	err  error
}

// bufferedStream runs the enumeration in a producer goroutine at most
// `buffer` paths ahead of the consumer. The iterator never returns while
// the producer is live: leaving the loop early cancels the producer's
// context and drains until it has exited, so the caller may safely reuse
// the session (or return it to a pool) as soon as the range ends.
func bufferedStream(ctx context.Context, sc StreamConfig, run func(context.Context, func([]graph.VertexID) bool) (*Result, error), owned bool) iter.Seq2[[]graph.VertexID, error] {
	onResult, observer, began, buffer := sc.OnResult, sc.Observer, sc.Began, sc.Buffer
	return func(yield func([]graph.VertexID, error) bool) {
		pctx, cancel := context.WithCancel(ctx)
		ch := make(chan streamItem, buffer)
		st := streamState{began: began}
		if st.began.IsZero() {
			st.began = time.Now()
		}
		go func() {
			defer close(ch)
			res, err := run(pctx, func(p []graph.VertexID) bool {
				st.noteFirst()
				if !owned {
					p = append([]graph.VertexID(nil), p...)
				}
				select {
				case ch <- streamItem{path: p}:
					return true
				case <-pctx.Done():
					return false
				}
			})
			if err != nil {
				select {
				case ch <- streamItem{err: err}:
				case <-pctx.Done():
				}
				return
			}
			st.settle(res, observer, onResult)
		}()
		// Whatever path exits the loop, stop the producer and wait for the
		// channel to close before returning the iteration.
		defer func() {
			cancel()
			for range ch { //nolint:revive // drain until the producer exits
			}
		}()
		for it := range ch {
			if !yield(it.path, it.err) || it.err != nil {
				return
			}
		}
	}
}
