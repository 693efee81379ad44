package pathenum

import (
	"context"
	"iter"
	"sync"
	"time"

	"pathenum/internal/core"
)

// Path is one result path, s to t inclusive. Paths delivered by a stream
// are owned by the consumer — unlike the Options.Emit callback's reused
// buffer, a streamed path stays valid after the iteration advances. They
// are not allocated one by one: consecutive paths are cut from shared slabs
// of at most 8 KB, each path capacity-clipped so appending to it cannot
// reach its neighbour. A slab is never reused, and lives as long as any
// path cut from it — retaining one path of a stream pins at most 8 KB.
type Path = []VertexID

// Request is the streaming-first query surface: one value bundling the
// query endpoints, the per-request options and the constraint extensions
// that the older entry points spread across (Query, Options, Constraints)
// parameter triples. The zero value of every field is "inherit or off";
// a Request is ready as soon as S, T and K are set.
//
//	for path, err := range engine.Stream(ctx, pathenum.Request{S: s, T: t, K: 6}) {
//		if err != nil { ... }
//		send(path)
//	}
type Request struct {
	// S, T, K are the query q(s,t,k): enumerate all simple paths from S
	// to T with at most K edges.
	S VertexID
	T VertexID
	K int

	// Method selects the algorithm; Auto (the zero value) enables the
	// cost-based optimizer. Ignored by constrained requests, which always
	// run the constrained index DFS.
	Method Method
	// Tau overrides the optimizer's preliminary-estimate threshold
	// (0 = DefaultTau).
	Tau float64
	// Limit stops enumeration after this many results when positive.
	Limit uint64
	// Timeout bounds the whole run when positive; the stream ends early
	// with the partial delivery (no error — see Engine.Stream).
	Timeout time.Duration
	// Predicate restricts the query to edges satisfying it; nil admits
	// all edges. PredicateToken declares its identity for frontier
	// sharing and caching (see PredicateToken); a non-nil Predicate with
	// a zero token is opaque — executed correctly, excluded from reuse.
	Predicate      EdgePredicate
	PredicateToken PredicateToken
	// Oracle overrides the engine/default distance oracle for this
	// request.
	Oracle DistanceOracle
	// Parallelism fans this one query's enumeration phase across up to
	// this many goroutines (0 or 1 = sequential): the join's probe walks
	// or the DFS's first-hop subtrees shard across workers and merge back
	// into the single delivery stream, with Limit enforced at the merge —
	// n results means n total, not n per shard — and identical counters
	// on completed runs. The engine caps the value at its worker count;
	// constrained requests ignore it (the constrained DFS is sequential).
	// See Options.Parallelism.
	Parallelism int

	// Accumulate and Sequence are the Appendix-E constraint extensions.
	// Setting either makes the enumeration step the constrained index DFS
	// (the search behind EnumerateConstrained); everything around it —
	// session, oracle, frontier cache, Predicate, timings — is the same.
	Accumulate *Accumulator
	Sequence   *SequenceConstraint

	// Buffer selects the stream delivery mode. 0 (the default) streams
	// synchronously: enumeration runs in the consumer's goroutine and is
	// suspended between pulls, so an unhurried consumer applies perfect
	// backpressure and pays no buffering. A positive Buffer moves the
	// enumeration to a producer goroutine that hands paths over in chunks:
	// a path goes out at once while the consumer is waiting for it, and
	// while the consumer is busy the producer runs ahead by at most one
	// chunk of min(Buffer, 256) paths — bounded pipelining, in whole
	// chunks, for consumers with per-item latency such as a network write.
	Buffer int
	// OnResult, when non-nil, receives the final Result (counts, plan,
	// timings, Completed) exactly once after enumeration finishes — the
	// streaming replacement for the return value of ExecuteWith. With
	// Buffer > 0 it may be called from the producer goroutine.
	OnResult func(*Result)
}

// NewRequest makes a Request for q with every option inheriting.
func NewRequest(q Query) Request { return Request{S: q.S, T: q.T, K: q.K} }

// Query returns the request's (s, t, k) triple.
func (r Request) Query() Query { return Query{S: r.S, T: r.T, K: r.K} }

// constrained reports whether the request needs the constrained DFS.
func (r Request) constrained() bool { return r.Accumulate != nil || r.Sequence != nil }

// options lowers the request to the per-call option overrides understood
// by the executor spine (Emit stays nil: the stream's yield is the emit).
func (r Request) options() Options {
	return Options{
		Method:         r.Method,
		Tau:            r.Tau,
		Limit:          r.Limit,
		Timeout:        r.Timeout,
		Predicate:      r.Predicate,
		PredicateToken: r.PredicateToken,
		Oracle:         r.Oracle,
		Parallelism:    r.Parallelism,
	}
}

// streamConfig lowers the request's delivery knobs and its constraints.
func (r Request) streamConfig() core.StreamConfig {
	sc := core.StreamConfig{Buffer: r.Buffer, OnResult: r.OnResult}
	if r.constrained() {
		sc.Constraints = &Constraints{Accumulate: r.Accumulate, Sequence: r.Sequence}
	}
	return sc
}

// Stream executes req on g and delivers result paths incrementally as a
// Go 1.23 range-over-func iterator — the engine-less counterpart of
// Engine.Stream (which adds session reuse, the frontier cache and the
// engine oracle; prefer it for repeated queries). See Engine.Stream for
// the iteration contract.
func Stream(ctx context.Context, g *Graph, req Request) iter.Seq2[Path, error] {
	// Building the stream runs nothing (the constructor is lazy), so it
	// happens here rather than inside the iterator: under iter.Pull2 the
	// iterator runs the whole enumeration on a fresh coroutine stack that
	// grows by copying, and every local this frame would pin there makes
	// that growth more likely.
	return core.NewSession(g, nil).StreamWith(ctx, req.Query(), req.options(), req.streamConfig())
}

// Stream executes one query and delivers its result paths incrementally:
// the first paths of a heavy query reach the consumer in milliseconds,
// while enumeration of the rest is still running — the paper's real-time
// claim surfaced as an API. The iterator is lazy (nothing runs until the
// first pull) and single-use.
//
// Iteration contract:
//
//   - Each iteration yields one Path (a slice the consumer owns, cut from
//     a shared slab — see Path) or a terminal error — an invalid query, a
//     stale oracle, a bad constraint — after which the stream ends. A
//     successful stream yields no error at all; there is no trailing
//     sentinel.
//   - Breaking out of the loop stops the enumeration immediately and
//     releases the session; so does cancelling ctx or exceeding
//     req.Timeout mid-iteration, which end the stream early *without* an
//     error — exactly like EnumerateContext, the partial delivery is the
//     answer, and req.OnResult reports Completed == false. A context
//     already cancelled before the first pull never starts the run and
//     surfaces its error as the terminal yield instead (mirroring
//     RunContext's entry check).
//   - req.OnResult, when set, receives the final Result (counts, plan,
//     timings) exactly once after enumeration finishes — the streaming
//     replacement for the return value of ExecuteWith. With Buffer > 0
//     it may be called from the producer goroutine.
//
// The request merges with the engine defaults field-by-field exactly as
// ExecuteWith merges Options (see MergeOptions); the engine's default
// Emit does not apply to streams. Streams consult the frontier cache and
// deposit behind the same admission check as ExecuteWith, and run on a
// pooled session captured for the duration of the iteration. A stream
// captures the serving graph at its first pull and finishes on it even if
// Insert or UpdateGraph advances the engine mid-flight.
func (e *Engine) Stream(ctx context.Context, req Request) iter.Seq2[Path, error] {
	return func(yield func(Path, error) bool) {
		// This frame hosts the whole enumeration — under iter.Pull2 that
		// is a fresh coroutine stack that grows by copying, so the
		// per-request setup (and its several hundred bytes of Options/
		// StreamConfig locals) lives out of line in startStream and only
		// the lease comes back.
		seq, lease := e.startStream(ctx, req)
		defer lease.end()
		for p, err := range seq {
			if err != nil {
				// Terminal errors end the stream without a Result, so the
				// Observer seam never fires for them; count them here.
				e.metrics.errors[opStream].Inc()
			}
			if !yield(p, err) {
				return
			}
		}
	}
}

// streamLease is what an engine stream must give back when its iteration
// ends: the load-tracking slot and the pooled session. A value, not a
// deferred closure pair, so ending a stream allocates nothing.
type streamLease struct {
	release func()
	pool    *sync.Pool
	sess    *core.Session
}

func (l *streamLease) end() {
	l.pool.Put(l.sess)
	l.release()
}

// startStream performs an engine stream's first-pull setup: the metrics
// entry, the option merge, load tracking, and frontier/session
// acquisition. Called lazily from the iterator (nothing may run before
// the first pull), but kept out of its frame — see Engine.Stream.
func (e *Engine) startStream(ctx context.Context, req Request) (iter.Seq2[Path, error], streamLease) {
	e.metrics.requests[opStream].Inc()
	start := time.Now()
	merged := e.MergeOptions(req.options())
	merged.Emit = nil // the yield is the emit; a default Emit must not fire
	sc := req.streamConfig()
	// The finish record rides the core Observer seam: a persistent
	// hook (no per-request closure) fired exactly once after
	// enumeration settles, abandoned streams included, with TTFP and
	// total anchored at Began so they cover the engine's own dispatch.
	sc.Began = start
	sc.Observer = &e.metrics.streamObs
	par := merged.Parallelism
	if req.constrained() {
		par = 0 // the constrained DFS runs sequentially
	}
	lease := streamLease{release: e.track(par)}
	g, oracle := e.view()
	sc.Fwd, sc.Bwd, _ = e.frontiers(ctx, g, oracle, req.Query(), merged)
	lease.pool = &e.sessions
	lease.sess = e.session(g, oracle)
	return lease.sess.StreamWith(ctx, req.Query(), merged, sc), lease
}
