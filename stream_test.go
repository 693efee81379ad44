package pathenum

import (
	"context"
	"errors"
	"iter"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/gen"
)

// layeredTestGraph builds s -> (width full layers) -> t with width^depth
// simple paths — the large-result shape where streaming matters.
func layeredTestGraph(t *testing.T, width, depth int) (*Graph, Query) {
	t.Helper()
	n := 2 + width*depth
	var edges []Edge
	layer := func(l, i int) VertexID { return VertexID(1 + l*width + i) }
	for i := 0; i < width; i++ {
		edges = append(edges, Edge{From: 0, To: layer(0, i)})
		edges = append(edges, Edge{From: layer(depth-1, i), To: VertexID(n - 1)})
	}
	for l := 0; l+1 < depth; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				edges = append(edges, Edge{From: layer(l, i), To: layer(l+1, j)})
			}
		}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, Query{S: 0, T: VertexID(n - 1), K: depth + 1}
}

func keyOfPath(p Path) string {
	var sb strings.Builder
	for i, v := range p {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(itoaInt(int(v)))
	}
	return sb.String()
}

// TestEngineStreamMatchesEnumerate: the streamed path set is identical to
// the legacy Enumerate Emit delivery and to Paths, across random queries —
// the redesign is additive, not a behavior change.
func TestEngineStreamMatchesEnumerate(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 61)
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(g, 0, 6, 4, 19)
	for _, q := range queries {
		var want []string
		if _, err := Enumerate(g, q, Options{Emit: func(p []VertexID) bool {
			want = append(want, keyOfPath(p))
			return true
		}}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(want)

		var got []string
		for p, serr := range e.Stream(context.Background(), NewRequest(q)) {
			if serr != nil {
				t.Fatal(serr)
			}
			got = append(got, keyOfPath(p))
		}
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("%v: stream %d paths, Enumerate %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: path %d: stream %q, Enumerate %q", q, i, got[i], want[i])
			}
		}

		paths, err := Paths(g, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != len(want) {
			t.Fatalf("%v: Paths %d, Enumerate %d", q, len(paths), len(want))
		}
	}
}

// TestEngineStreamFirstPathBeforeCompletion is the acceptance criterion:
// a blocked consumer (unbuffered pull) observes the first path of a
// large-result query before enumeration completes.
func TestEngineStreamFirstPathBeforeCompletion(t *testing.T) {
	g, q := layeredTestGraph(t, 4, 4) // 256 paths
	e, err := NewEngine(g, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(q)
	done := false
	req.OnResult = func(*Result) { done = true }
	next, stop := iter.Pull2(e.Stream(context.Background(), req))
	defer stop()
	p, serr, ok := next()
	if !ok || serr != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, serr)
	}
	if len(p) != q.K+1 || p[0] != q.S || p[len(p)-1] != q.T {
		t.Fatalf("first path %v malformed", p)
	}
	if done {
		t.Fatal("enumeration completed before the consumer pulled more than one path")
	}
	count := 1
	for {
		_, serr, ok := next()
		if !ok {
			break
		}
		if serr != nil {
			t.Fatal(serr)
		}
		count++
	}
	if count != 256 || !done {
		t.Fatalf("drained %d paths (done=%v), want 256", count, done)
	}
}

// TestEngineStreamBufferedAndLimit: the buffered mode and Limit compose
// through the public Request surface.
func TestEngineStreamBufferedAndLimit(t *testing.T) {
	g, q := layeredTestGraph(t, 4, 3)
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	req := NewRequest(q)
	req.Buffer = 8
	req.Limit = 10
	var res *Result
	req.OnResult = func(r *Result) { res = r }
	got := 0
	for _, serr := range e.Stream(context.Background(), req) {
		if serr != nil {
			t.Fatal(serr)
		}
		got++
	}
	if got != 10 {
		t.Fatalf("streamed %d paths, want limit 10", got)
	}
	if res == nil || res.Completed {
		t.Fatalf("limit-stopped stream: res=%+v, want partial result", res)
	}
}

// TestEngineStreamError: an invalid request yields its error through the
// stream, once.
func TestEngineStreamError(t *testing.T) {
	g, _ := layeredTestGraph(t, 2, 2)
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, serr := range e.Stream(context.Background(), Request{S: 1, T: 1, K: 3}) {
		n++
		if serr == nil {
			t.Fatal("invalid request streamed a path")
		}
		if !errors.Is(serr, core.ErrSameEndpoints) {
			t.Fatalf("err = %v, want ErrSameEndpoints", serr)
		}
	}
	if n != 1 {
		t.Fatalf("%d iterations, want exactly one error", n)
	}
}

// TestChunkedStreamExits: core.Chunked around an engine stream — the shape
// POST /paths serves, and Buffer > 0 flattens — gives everything back on
// every way out of the loop: the producer goroutine has exited and the
// pooled session is returned by the time the range ends, and OnResult fired
// exactly once (never for a request that failed before running).
func TestChunkedStreamExits(t *testing.T) {
	g, q := layeredTestGraph(t, 6, 5) // 7776 paths: still enumerating at every exit
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	type exit struct {
		name    string
		req     Request
		results int // OnResult calls expected
		// body consumes chunk number n (from 1) and reports whether to go on.
		body func(n int, chunk []Path, err error, cancel context.CancelFunc) bool
	}
	exits := []exit{
		{"break after two chunks", NewRequest(q), 1, func(n int, _ []Path, err error, _ context.CancelFunc) bool {
			return err == nil && n < 2
		}},
		{"context cancelled mid-chunk", NewRequest(q), 1, func(n int, chunk []Path, err error, cancel context.CancelFunc) bool {
			if n == 2 {
				cancel()
			}
			return err == nil
		}},
		{"terminal error first", Request{S: 1, T: 1, K: 3}, 0, func(n int, chunk []Path, err error, _ context.CancelFunc) bool {
			if n != 1 || chunk != nil || !errors.Is(err, core.ErrSameEndpoints) {
				t.Errorf("delivery %d = %v, %v; want ErrSameEndpoints alone, first and last", n, chunk, err)
			}
			return true
		}},
		{"panic in the consumer body", NewRequest(q), 1, func(n int, _ []Path, _ error, _ context.CancelFunc) bool {
			if n == 2 {
				panic("consumer failed")
			}
			return true
		}},
	}
	before := runtime.NumGoroutine()
	for _, x := range exits {
		for _, par := range []int{0, 2} {
			var results atomic.Int32
			req := x.req
			req.Parallelism = par
			req.OnResult = func(*Result) { results.Add(1) }
			ctx, cancel := context.WithCancel(context.Background())
			func() {
				defer func() {
					if r := recover(); r != nil && r != "consumer failed" {
						panic(r)
					}
				}()
				n := 0
				for chunk, err := range core.Chunked(ctx, 64, func(ctx context.Context) iter.Seq2[Path, error] {
					return e.Stream(ctx, req)
				}) {
					if n++; !x.body(n, chunk, err, cancel) {
						break
					}
				}
			}()
			cancel()
			if ps := e.PoolStats(); ps.InFlightQueries != 0 || ps.InFlightShards != 0 {
				t.Fatalf("%s, parallelism %d: pool after the range = %+v, want idle", x.name, par, ps)
			}
			if got := int(results.Load()); got != x.results {
				t.Fatalf("%s, parallelism %d: OnResult fired %d times, want %d", x.name, par, got, x.results)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after the exits, was %d", now, before)
	}
}

// TestEngineStreamConstrained: a Request with constraints runs the
// constrained DFS on the engine's executor spine — the path set matches the
// one-shot EnumerateConstrained, and the Result carries the spine's
// accounting (labeling size, build timing) like any other stream's.
func TestEngineStreamConstrained(t *testing.T) {
	g, q := layeredTestGraph(t, 3, 3)
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pred := func(u, v VertexID) bool { return !(u == 0 && v == 1) }
	cons := Constraints{Predicate: pred}
	var want []string
	if _, err := EnumerateConstrained(g, q, cons, RunControl{Emit: func(p []VertexID) bool {
		want = append(want, keyOfPath(p))
		return true
	}}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)

	req := NewRequest(q)
	req.Predicate = pred
	req.Sequence = nil
	req.Accumulate = &Accumulator{
		Value:    func(from, to VertexID) float64 { return 0 },
		Combine:  func(a, b float64) float64 { return a + b },
		Identity: 0,
		Accept:   func(total float64) bool { return true },
	}
	var res *Result
	req.OnResult = func(r *Result) { res = r }
	var got []string
	for p, serr := range e.Stream(context.Background(), req) {
		if serr != nil {
			t.Fatal(serr)
		}
		got = append(got, keyOfPath(p))
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("constrained stream %d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("path %d: %q vs %q", i, got[i], want[i])
		}
	}
	if res == nil || !res.Completed || res.BFSVisited == 0 || res.Timings.Build == 0 {
		t.Fatalf("constrained stream Result %+v: want a completed run with BFSVisited and Timings.Build set", res)
	}
}

// TestPackageStream: the engine-less Stream mirrors Paths, including the
// constrained route.
func TestPackageStream(t *testing.T) {
	g, q := layeredTestGraph(t, 3, 2)
	want, err := Paths(g, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for p, serr := range Stream(context.Background(), g, NewRequest(q)) {
		if serr != nil {
			t.Fatal(serr)
		}
		if len(p) == 0 {
			t.Fatal("empty path")
		}
		got++
	}
	if got != len(want) {
		t.Fatalf("package stream %d paths, want %d", got, len(want))
	}
}

// TestStreamBatchMatchesExecuteBatch: every batch position is delivered
// exactly once with the same counts as the materializing ExecuteBatch,
// invalid positions carry errors, and the final item carries the stats.
func TestStreamBatchMatchesExecuteBatch(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 67)
	e, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(g, 0, 12, 4, 23)
	queries = append(queries, queries[0])              // duplicate
	queries = append(queries, Query{S: 5, T: 5, K: 3}) // invalid

	wantRes, wantErrs, _ := e.ExecuteBatch(context.Background(), queries, Options{})

	seen := make(map[int]int, len(queries))
	var stats *BatchStats
	sawStatsLast := false
	for item := range e.StreamBatch(context.Background(), queries, Options{}) {
		if item.Index == -1 {
			if item.Stats == nil {
				t.Fatal("final item without stats")
			}
			stats = item.Stats
			sawStatsLast = true
			continue
		}
		if sawStatsLast {
			t.Fatal("stats item was not last")
		}
		seen[item.Index]++
		if wantErrs[item.Index] != nil {
			if item.Err == nil {
				t.Fatalf("index %d: want error %v, got result", item.Index, wantErrs[item.Index])
			}
			continue
		}
		if item.Err != nil {
			t.Fatalf("index %d: %v", item.Index, item.Err)
		}
		if item.Result.Counters.Results != wantRes[item.Index].Counters.Results {
			t.Fatalf("index %d: streamed count %d, batch count %d",
				item.Index, item.Result.Counters.Results, wantRes[item.Index].Counters.Results)
		}
	}
	if stats == nil {
		t.Fatal("stream ended without a stats item")
	}
	if len(seen) != len(queries) {
		t.Fatalf("delivered %d of %d positions", len(seen), len(queries))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("position %d delivered %d times", i, n)
		}
	}
	if stats.Queries != len(queries) || stats.Deduped == 0 || stats.Invalid != 1 {
		t.Fatalf("stats = %+v, want %d queries, >=1 deduped, 1 invalid", stats, len(queries))
	}
}

// TestStreamBatchEarlyBreak: abandoning the stream cancels the remaining
// work and waits for the workers, so the goroutine count returns to its
// baseline, every session is back in the pool (the pool gauges read idle)
// and the engine keeps serving.
func TestStreamBatchEarlyBreak(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 71)
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(g, 0, 24, 4, 29)
	before := runtime.NumGoroutine()
	for _, after := range []int{1, 3} {
		got := 0
		for item := range e.StreamBatch(context.Background(), queries, Options{}) {
			if item.Index < 0 {
				t.Fatal("stats item delivered to an abandoned stream")
			}
			if item.Err == nil {
				got++
			}
			if got == after {
				break
			}
		}
		if got != after {
			t.Fatalf("consumed %d items before break, want %d", got, after)
		}
		if ps := e.PoolStats(); ps.InFlightQueries != 0 || ps.InFlightShards != 0 {
			t.Fatalf("break after %d: pool = %+v, want idle", after, ps)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after the abandoned batches, was %d", now, before)
	}
	if _, err := e.ExecuteWith(context.Background(), queries[0], Options{}); err != nil {
		t.Fatalf("engine unusable after abandoned batch stream: %v", err)
	}
}

// TestStreamBatchCancellation: a cancelled context fail-fasts the stream —
// every position is still delivered (with ctx errors for the abandoned
// ones) and the stats item closes the stream.
func TestStreamBatchCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 73)
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(g, 0, 16, 5, 31)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Only the first query to emit runs free; every other one holds at its
	// first path until the cancel, so the workers cannot drain the batch
	// before the consumer's cancel lands, however the threads are scheduled.
	var mu sync.Mutex
	var free [2]VertexID
	opts := Options{Emit: func(p []VertexID) bool {
		ends := [2]VertexID{p[0], p[len(p)-1]}
		mu.Lock()
		if free == [2]VertexID{} {
			free = ends
		}
		hold := ends != free
		mu.Unlock()
		if hold {
			<-ctx.Done()
		}
		return true
	}}
	delivered, ctxErrs := 0, 0
	sawStats := false
	for item := range e.StreamBatch(ctx, queries, opts) {
		if item.Index == -1 {
			sawStats = true
			continue
		}
		delivered++
		if errors.Is(item.Err, context.Canceled) {
			ctxErrs++
		}
		cancel() // cancel after the first delivery
	}
	if delivered != len(queries) {
		t.Fatalf("delivered %d of %d positions", delivered, len(queries))
	}
	if ctxErrs == 0 {
		t.Fatal("no position carried the cancellation error")
	}
	if !sawStats {
		t.Fatal("cancelled stream must still close with the stats item")
	}
}
