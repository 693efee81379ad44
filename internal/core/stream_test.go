package core

import (
	"context"
	"errors"
	"iter"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// layeredGraph builds s -> (width full layers) -> t, which has width^depth
// simple paths of length depth+1 — a large result set with a cheap index,
// the shape where incremental delivery matters.
func layeredGraph(t *testing.T, width, depth int) (*graph.Graph, Query) {
	t.Helper()
	n := 2 + width*depth
	var edges []graph.Edge
	layer := func(l, i int) graph.VertexID { return graph.VertexID(1 + l*width + i) }
	for i := 0; i < width; i++ {
		edges = append(edges, graph.Edge{From: 0, To: layer(0, i)})
		edges = append(edges, graph.Edge{From: layer(depth-1, i), To: graph.VertexID(n - 1)})
	}
	for l := 0; l+1 < depth; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				edges = append(edges, graph.Edge{From: layer(l, i), To: layer(l+1, j)})
			}
		}
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, Query{S: 0, T: graph.VertexID(n - 1), K: depth + 1}
}

// streamPaths drains a stream into sorted strings, failing on any error.
func streamPaths(t *testing.T, seq iter.Seq2[[]graph.VertexID, error]) []string {
	t.Helper()
	var out []string
	for p, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pathKey(p))
	}
	sort.Strings(out)
	return out
}

func pathKey(p []graph.VertexID) string {
	var sb []byte
	for i, v := range p {
		if i > 0 {
			sb = append(sb, ',')
		}
		sb = append(sb, itoa(int(v))...)
	}
	return string(sb)
}

// TestStreamMatchesRun: the streamed path set equals the Emit-callback
// path set on random graphs, for both delivery modes.
func TestStreamMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 0
	for trials < 20 {
		n := 12 + rng.Intn(40)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		q := Query{S: graph.VertexID(rng.Intn(n)), T: graph.VertexID(rng.Intn(n)), K: 2 + rng.Intn(4)}
		if q.S == q.T {
			continue
		}
		trials++
		want := collectPaths(t, func(opts Options) (*Result, error) { return Run(g, q, opts) })
		sess := NewSession(g, nil)
		got := streamPaths(t, sess.Stream(context.Background(), q, Options{}))
		if len(got) != len(want) {
			t.Fatalf("%v: stream %d paths, run %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: path %d: stream %q, run %q", q, i, got[i], want[i])
			}
		}
		buffered := streamPaths(t, sess.StreamWith(context.Background(), q, Options{}, StreamConfig{Buffer: 3}))
		if len(buffered) != len(want) {
			t.Fatalf("%v: buffered stream %d paths, want %d", q, len(buffered), len(want))
		}
	}
}

// TestStreamFirstPathBeforeCompletion is the real-time acceptance check:
// a blocked consumer pulling one path at a time observes the first path
// while enumeration is still suspended mid-run — OnResult has not fired.
func TestStreamFirstPathBeforeCompletion(t *testing.T) {
	g, q := layeredGraph(t, 4, 4) // 256 paths
	done := false
	sess := NewSession(g, nil)
	seq := sess.StreamWith(context.Background(), q, Options{}, StreamConfig{
		OnResult: func(res *Result) { done = true },
	})
	next, stop := iter.Pull2(seq)
	defer stop()
	p, err, ok := next()
	if !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	if len(p) != q.K+1 {
		t.Fatalf("first path %v: len %d, want %d", p, len(p), q.K+1)
	}
	if done {
		t.Fatal("enumeration reported complete after a single unbuffered pull of a 256-path query")
	}
	count := 1
	for {
		_, err, ok := next()
		if !ok {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 256 {
		t.Fatalf("streamed %d paths, want 256", count)
	}
	if !done {
		t.Fatal("OnResult must fire once the stream is drained")
	}
}

// TestStreamYieldsOwnedCopies: unlike Emit's reused buffer, yielded paths
// are the consumer's — they stay valid after the iteration advances, and
// although they are cut from shared slabs, appending to one cannot reach the
// path cut after it. Both enumerators are covered across both delivery
// modes, on a result set that fills dozens of slabs.
func TestStreamYieldsOwnedCopies(t *testing.T) {
	g, q := layeredGraph(t, 15, 4) // 15^4 = 50625 paths
	sess := NewSession(g, nil)
	var want []string
	if _, err := sess.Run(q, Options{Emit: func(p []graph.VertexID) bool {
		want = append(want, pathKey(p))
		return true
	}}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	for _, method := range []Method{MethodDFS, MethodJoin} {
		for _, buffer := range []int{0, 1, 64} {
			var kept [][]graph.VertexID
			for p, err := range sess.StreamWith(context.Background(), q, Options{Method: method}, StreamConfig{Buffer: buffer}) {
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, p)
			}
			for i := 0; i < len(kept); i += 7 {
				_ = append(kept[i], -1, -1) // must reallocate, not overwrite a neighbour
			}
			got := make([]string, len(kept))
			for i, p := range kept {
				got[i] = pathKey(p)
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v buffer=%d: %d retained paths differ from the %d emitted",
					method, buffer, len(got), len(want))
			}
		}
	}
}

// TestPathSlab: slabs grow from one path's worth to slabMax and no further,
// and every copy is capacity-clipped.
func TestPathSlab(t *testing.T) {
	var slab PathSlab
	p := []graph.VertexID{1, 2, 3}
	sizes := map[int]bool{}
	for i := 0; i < 4*slabMax; i++ {
		p[1] = graph.VertexID(i)
		c := slab.Copy(p)
		if !slices.Equal(c, p) || cap(c) != len(p) {
			t.Fatalf("copy %d = %v (cap %d), want %v clipped", i, c, cap(c), p)
		}
		sizes[slab.size] = true
	}
	for _, want := range []int{3, 6, 12, 1536, slabMax} {
		if !sizes[want] {
			t.Errorf("no slab of %d vertices among %v", want, sizes)
		}
	}
	if len(sizes) != 11 { // 3·2^0 … 3·2^9, then slabMax
		t.Errorf("%d slab sizes %v, want 11", len(sizes), sizes)
	}
}

// TestStreamEarlyBreak: leaving the loop stops enumeration immediately;
// OnResult reports the partial run and the session is immediately
// reusable, in both delivery modes.
func TestStreamEarlyBreak(t *testing.T) {
	g, q := layeredGraph(t, 4, 4)
	sess := NewSession(g, nil)
	for _, buffer := range []int{0, 2} {
		var res *Result
		got := 0
		for p, err := range sess.StreamWith(context.Background(), q, Options{}, StreamConfig{
			Buffer:   buffer,
			OnResult: func(r *Result) { res = r },
		}) {
			if err != nil {
				t.Fatal(err)
			}
			if p == nil {
				t.Fatal("nil path without error")
			}
			got++
			if got == 3 {
				break
			}
		}
		if got != 3 {
			t.Fatalf("buffer=%d: consumed %d paths, want 3", buffer, got)
		}
		// The unbuffered mode has settled OnResult synchronously; the
		// buffered producer settles before the iterator returns too (the
		// stream drains the producer on exit), so res is safe to read.
		if res == nil {
			t.Fatalf("buffer=%d: OnResult did not fire on early break", buffer)
		}
		if res.Completed {
			t.Fatalf("buffer=%d: Completed=true on an abandoned stream", buffer)
		}
		// Session must be immediately reusable for a full run.
		n, err := Count(g, q)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := sess.Run(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res2.Counters.Results != n {
			t.Fatalf("buffer=%d: session reuse after abandoned stream: %d results, want %d", buffer, res2.Counters.Results, n)
		}
	}
}

// TestStreamLimit: Options.Limit bounds the stream like any other run.
func TestStreamLimit(t *testing.T) {
	g, q := layeredGraph(t, 4, 3)
	sess := NewSession(g, nil)
	got := 0
	for _, err := range sess.Stream(context.Background(), q, Options{Limit: 7}) {
		if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != 7 {
		t.Fatalf("streamed %d paths, want limit 7", got)
	}
}

// TestStreamError: a terminal error is yielded once and ends the stream.
func TestStreamError(t *testing.T) {
	g, _ := layeredGraph(t, 2, 2)
	sess := NewSession(g, nil)
	for _, buffer := range []int{0, 2} {
		iterations, errs := 0, 0
		for p, err := range sess.StreamWith(context.Background(), Query{S: 1, T: 1, K: 3}, Options{}, StreamConfig{Buffer: buffer}) {
			iterations++
			if err == nil {
				t.Fatalf("buffer=%d: yielded path %v for an invalid query", buffer, p)
			}
			if !errors.Is(err, ErrSameEndpoints) {
				t.Fatalf("buffer=%d: err = %v, want ErrSameEndpoints", buffer, err)
			}
			errs++
		}
		if iterations != 1 || errs != 1 {
			t.Fatalf("buffer=%d: %d iterations, %d errors; want exactly one error", buffer, iterations, errs)
		}
	}
}

// TestStreamContextCancelled: a context cancelled before the first pull
// surfaces its error; one cancelled mid-stream ends the stream early with
// a partial (Completed == false) result and no error, mirroring
// RunContext.
func TestStreamContextCancelled(t *testing.T) {
	g, q := layeredGraph(t, 4, 4)
	sess := NewSession(g, nil)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range sess.Stream(pre, q, Options{}) {
		if err == nil {
			t.Fatal("pre-cancelled stream yielded a path")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		sawErr = true
	}
	if !sawErr {
		t.Fatal("pre-cancelled stream must yield the context error")
	}

	// Cancellation is observed on an amortized expansion counter (roughly
	// every 1024 expansions), so use a query heavy enough that the check
	// fires long before the result set is exhausted.
	bigG, bigQ := layeredGraph(t, 6, 5) // 7776 paths
	bigSess := NewSession(bigG, nil)
	mid, cancelMid := context.WithCancel(context.Background())
	defer cancelMid()
	var res *Result
	got := 0
	for _, err := range bigSess.StreamWith(mid, bigQ, Options{}, StreamConfig{OnResult: func(r *Result) { res = r }}) {
		if err != nil {
			t.Fatalf("mid-stream cancellation must not yield an error, got %v", err)
		}
		got++
		if got == 2 {
			cancelMid()
		}
	}
	if got >= 7776 {
		t.Fatalf("cancelled stream delivered all %d paths", got)
	}
	if res == nil || res.Completed {
		t.Fatalf("cancelled stream: res=%+v, want partial result", res)
	}
}

// TestStreamSharedFrontiers: streaming over precomputed frontiers yields
// the same path set (the RunShared soundness contract, streamed), and a
// stale frontier fails the stream with ErrStaleEpoch.
func TestStreamSharedFrontiers(t *testing.T) {
	g, q := layeredGraph(t, 3, 3)
	fwd, err := NewForwardFrontier(g, q.S, q.K, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := NewBackwardFrontier(g, q.T, q.K, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(g, nil)
	want := streamPaths(t, sess.Stream(context.Background(), q, Options{}))
	got := streamPaths(t, sess.StreamWith(context.Background(), q, Options{}, StreamConfig{Fwd: fwd, Bwd: bwd}))
	if len(got) != len(want) {
		t.Fatalf("shared stream %d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("path %d: shared %q, plain %q", i, got[i], want[i])
		}
	}

	// Stale side: rebuild the graph through a Dynamic so the epoch moves.
	dyn := graph.NewDynamic(g)
	snap0 := dyn.Snapshot()
	f0, err := NewForwardFrontier(snap0, q.S, q.K, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	added, err := dyn.Insert(q.T, q.S) // t -> s does not exist in the layered DAG
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("insert must apply (and bump the epoch)")
	}
	snap1 := dyn.Snapshot()
	stale := NewSession(snap1, nil)
	sawStale := false
	for _, serr := range stale.StreamWith(context.Background(), q, Options{}, StreamConfig{Fwd: f0}) {
		if serr == nil {
			t.Fatal("stale frontier streamed a path")
		}
		if !errors.Is(serr, graph.ErrStaleEpoch) {
			t.Fatalf("err = %v, want ErrStaleEpoch", serr)
		}
		sawStale = true
	}
	if !sawStale {
		t.Fatal("stale frontier must fail the stream")
	}
}

// TestStreamJoinEarlyTermination: cancelling a join-planned stream after
// the first few paths stops the probe-side DFS promptly — JoinStats must
// show no further half-side walks were expanded — in both delivery modes.
func TestStreamJoinEarlyTermination(t *testing.T) {
	g, q := layeredGraph(t, 6, 5) // 7776 paths; probe side has 216 walks
	for _, buffer := range []int{0, 3} {
		sess := NewSession(g, nil)
		var res *Result
		got := 0
		for p, err := range sess.StreamWith(context.Background(), q, Options{Method: MethodJoin}, StreamConfig{
			Buffer:   buffer,
			OnResult: func(r *Result) { res = r },
		}) {
			if err != nil {
				t.Fatalf("buffer=%d: %v", buffer, err)
			}
			if len(p) == 0 {
				t.Fatalf("buffer=%d: empty path", buffer)
			}
			got++
			if got == 3 {
				break
			}
		}
		if res == nil {
			t.Fatalf("buffer=%d: OnResult must settle before the iterator returns", buffer)
		}
		if res.Plan.Method != MethodJoin {
			t.Fatalf("buffer=%d: plan %v, want MethodJoin", buffer, res.Plan.Method)
		}
		if res.Completed {
			t.Fatalf("buffer=%d: Completed=true on an abandoned stream", buffer)
		}
		// Promptness: an abandoned consumer stops the lazy probe within the
		// few walks its pulls (plus any producer run-ahead) could demand —
		// nowhere near the 216-walk probe side a materializing join would
		// have built up front.
		if maxWalks := int64(got + buffer + 2); res.JoinStats.ProbeWalks > maxWalks {
			t.Fatalf("buffer=%d: ProbeWalks=%d after %d consumed paths, want <= %d",
				buffer, res.JoinStats.ProbeWalks, got, maxWalks)
		}
		if res.JoinStats.BuildTuples == 0 {
			t.Fatalf("buffer=%d: build side empty on a join-planned run", buffer)
		}
	}
}

// TestStreamJoinBufferedNoGoroutineLeak: abandoning buffered join-planned
// streams repeatedly must wind every producer goroutine down — the
// iterator's drain-on-exit contract, now exercised with a probe DFS
// suspended mid-walk at abandonment.
func TestStreamJoinBufferedNoGoroutineLeak(t *testing.T) {
	g, q := layeredGraph(t, 6, 5)
	sess := NewSession(g, nil)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		n := 0
		for _, err := range sess.StreamWith(context.Background(), q, Options{Method: MethodJoin}, StreamConfig{Buffer: 4}) {
			if err != nil {
				t.Fatal(err)
			}
			n++
			if n == 2 {
				break
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after abandoned buffered join streams, was %d", now, before)
	}
}

// TestChunkedIdleConsumer: chunks form only under backpressure. A per-edge
// function that sleeps 5 ms makes the enumeration trickle; the consumer does
// nothing between pulls, so every path must arrive alone and before the
// next one exists — no chunk fills first, no timer holds a path back.
func TestChunkedIdleConsumer(t *testing.T) {
	g, q := layeredGraph(t, 2, 2) // 4 paths, 3 edges each
	sess := NewSession(g, nil)
	cons := &Constraints{Accumulate: &Accumulator{
		Value:   func(_, _ graph.VertexID) float64 { time.Sleep(5 * time.Millisecond); return 1 },
		Combine: func(a, b float64) float64 { return a + b },
		Accept:  func(float64) bool { return true },
	}}
	var produced atomic.Int64
	chunks := Chunked(context.Background(), 64, func(ctx context.Context) pathSeq {
		inner := sess.StreamWith(ctx, q, Options{}, StreamConfig{Constraints: cons})
		return func(yield func([]graph.VertexID, error) bool) {
			for p, err := range inner {
				produced.Add(1)
				if !yield(p, err) {
					return
				}
			}
		}
	})
	delivered := int64(0)
	for chunk, err := range chunks {
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) != 1 {
			t.Fatalf("chunk of %d paths reached an idle consumer, want each path alone", len(chunk))
		}
		delivered++
		if n := produced.Load(); n != delivered {
			t.Fatalf("path %d arrived when %d had been produced", delivered, n)
		}
	}
	if delivered != 4 {
		t.Fatalf("delivered %d paths, want 4", delivered)
	}
}

// TestChunkedBusyConsumer: while the consumer is busy the producer runs at
// most one chunk ahead and chunks never exceed the cap — min(limit, chunkMax)
// — and every path arrives exactly once, in order.
func TestChunkedBusyConsumer(t *testing.T) {
	const total = 5000
	for _, tc := range []struct{ limit, maxChunk int }{{1, 1}, {7, 7}, {100000, chunkMax}} {
		var produced atomic.Int64
		chunks := Chunked(context.Background(), tc.limit, func(context.Context) pathSeq {
			return func(yield func([]graph.VertexID, error) bool) {
				for i := 0; i < total; i++ {
					produced.Add(1)
					if !yield([]graph.VertexID{graph.VertexID(i)}, nil) {
						return
					}
				}
			}
		})
		next, largest := 0, 0
		for chunk, err := range chunks {
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, len(chunk))
			for _, p := range chunk {
				if int(p[0]) != next {
					t.Fatalf("limit %d: got path %d, want %d", tc.limit, p[0], next)
				}
				next++
			}
			// One chunk is in the consumer's hands, at most one more is filling.
			if ahead := int(produced.Load()) - next; ahead > tc.maxChunk {
				t.Fatalf("limit %d: producer %d paths ahead, cap %d", tc.limit, ahead, tc.maxChunk)
			}
			if next%64 == 0 {
				time.Sleep(100 * time.Microsecond) // a consumer with per-chunk latency
			}
		}
		if next != total || largest > tc.maxChunk {
			t.Fatalf("limit %d: %d paths, largest chunk %d (cap %d)", tc.limit, next, largest, tc.maxChunk)
		}
		if tc.limit > 1 && largest == 1 {
			t.Fatalf("limit %d: a busy consumer never received more than one path at once", tc.limit)
		}
	}
}

// TestStreamConstrained: a constrained stream runs on the executor spine —
// differential against the one-shot RunConstrained on an accumulative
// constraint, both modes — and so reports what every other run reports
// (labeling size, build timing) and checks the context on entry.
func TestStreamConstrained(t *testing.T) {
	g, q := layeredGraph(t, 3, 3)
	cons := Constraints{
		Accumulate: &Accumulator{
			Value:    func(from, to graph.VertexID) float64 { return 1 },
			Combine:  func(a, b float64) float64 { return a + b },
			Identity: 0,
			Accept:   func(total float64) bool { return total <= float64(q.K) },
		},
	}
	var want []string
	res, err := RunConstrained(g, q, cons, RunControl{Emit: func(p []graph.VertexID) bool {
		want = append(want, pathKey(p))
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	sess := NewSession(g, nil)
	for _, buffer := range []int{0, 2} {
		var done *Result
		// Method does not apply to a constrained stream.
		got := streamPaths(t, sess.StreamWith(context.Background(), q, Options{Method: MethodJoin}, StreamConfig{
			Constraints: &cons,
			Buffer:      buffer,
			OnResult:    func(r *Result) { done = r },
		}))
		if !equalStrings(got, want) {
			t.Fatalf("buffer=%d: constrained stream %v, one-shot %v", buffer, got, want)
		}
		if done == nil || done.Counters != res.Counters || done.Plan.Method != MethodDFS || !done.Completed {
			t.Fatalf("buffer=%d: OnResult=%+v, want the one-shot counters %+v on a completed DFS plan", buffer, done, res.Counters)
		}
		if done.BFSVisited == 0 || done.Timings.Build == 0 || done.IndexVertices != res.IndexVertices {
			t.Fatalf("buffer=%d: BFSVisited=%d Build=%v IndexVertices=%d (one-shot %d): not the executor's accounting",
				buffer, done.BFSVisited, done.Timings.Build, done.IndexVertices, res.IndexVertices)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, err := range sess.StreamWith(ctx, q, Options{}, StreamConfig{Constraints: &cons}) {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled constrained stream yielded err=%v, want context.Canceled", err)
		}
		return
	}
	t.Fatal("pre-cancelled constrained stream yielded nothing")
}
