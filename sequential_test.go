package pathenum

import (
	"context"
	"iter"
	"runtime"
	"slices"
	"testing"
	"time"
)

// deprecatedParallelismEngine is a 4-worker engine whose default Options
// set the deprecated Parallelism field, the one way a Request can still
// carry it to Engine.Stream.
func deprecatedParallelismEngine(t *testing.T, g *Graph) *Engine {
	t.Helper()
	e, err := NewEngine(g, EngineConfig{Workers: 4, Options: Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineStreamParallelMatchesSequential: no engine route reads
// Options.Parallelism. ExecuteWith with Parallelism 4, and Engine.Stream on
// an engine whose default sets it, deliver what a plain engine delivers —
// the same paths in the same order and the same Counters — for DFS and
// join plans and both stream delivery modes; and ExecuteWith's Emit and
// the unbuffered stream's loop body run with no goroutine started.
func TestEngineStreamParallelMatchesSequential(t *testing.T) {
	g, q := layeredTestGraph(t, 4, 4) // 256 paths
	plain, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	par := deprecatedParallelismEngine(t, g)
	ctx := context.Background()
	execute := func(e *Engine, opts Options) ([]string, *Result) {
		var keys []string
		before := runtime.NumGoroutine()
		opts.Emit = func(p []VertexID) bool {
			if now := runtime.NumGoroutine(); now > before {
				t.Fatalf("%d goroutines inside Emit, %d before the run", now, before)
			}
			keys = append(keys, keyOfPath(p))
			return true
		}
		res, err := e.ExecuteWith(ctx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return keys, res
	}
	stream := func(e *Engine, req Request) ([]string, *Result) {
		var keys []string
		var res *Result
		req.OnResult = func(r *Result) { res = r }
		before := runtime.NumGoroutine()
		for p, err := range e.Stream(ctx, req) {
			if err != nil {
				t.Fatal(err)
			}
			if now := runtime.NumGoroutine(); req.Buffer == 0 && now > before {
				t.Fatalf("%d goroutines inside the unbuffered stream, %d before it", now, before)
			}
			keys = append(keys, keyOfPath(p))
		}
		return keys, res
	}
	agree := func(what string, got, want []string, res, wantRes *Result) {
		t.Helper()
		if len(want) != 256 || !slices.Equal(got, want) {
			t.Fatalf("%s: %d paths differ from the plain engine's %d", what, len(got), len(want))
		}
		if res == nil || !res.Completed || res.Counters != wantRes.Counters || res.Plan.Method != wantRes.Plan.Method {
			t.Fatalf("%s: result %+v, plain engine %+v", what, res, wantRes)
		}
	}
	for _, m := range []Method{DFS, Join} {
		want, wantRes := execute(plain, Options{Method: m})
		got, res := execute(par, Options{Method: m, Parallelism: 4})
		agree("ExecuteWith "+m.String(), got, want, res, wantRes)
		for _, buffer := range []int{0, 8} {
			req := NewRequest(q)
			req.Method, req.Buffer = m, buffer
			want, wantRes := stream(plain, req)
			got, res := stream(par, req)
			agree("Stream "+m.String(), got, want, res, wantRes)
		}
	}
}

// TestParallelStreamAbandonNoGoroutineLeak: breaking out of a stream on an
// engine whose default sets Parallelism — unbuffered and buffered — leaves
// the goroutine count where it was. Repeated abandonment amplifies any leak.
func TestParallelStreamAbandonNoGoroutineLeak(t *testing.T) {
	g, q := layeredTestGraph(t, 5, 5) // 3125 paths: still enumerating at abandonment
	e := deprecatedParallelismEngine(t, g)
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		for _, buffer := range []int{0, 4} {
			req := NewRequest(q)
			req.Buffer = buffer
			n := 0
			for _, err := range e.Stream(context.Background(), req) {
				if err != nil {
					t.Fatal(err)
				}
				if n++; n == 2 {
					break
				}
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%d goroutines after abandoned streams, was %d", now, before)
	}
}

// TestEnginePoolStatsDuringParallelStream: a live stream on an engine whose
// default sets Parallelism is one in-flight query, a quarter of four
// workers, and the gauges return to idle once the stream is released.
func TestEnginePoolStatsDuringParallelStream(t *testing.T) {
	g, q := layeredTestGraph(t, 4, 4)
	e := deprecatedParallelismEngine(t, g)
	if ps := e.PoolStats(); ps != (PoolStats{Workers: 4}) {
		t.Fatalf("idle pool = %+v", ps)
	}
	next, stopStream := iter.Pull2(e.Stream(context.Background(), NewRequest(q)))
	if _, err, ok := next(); !ok || err != nil {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	if ps := e.PoolStats(); ps != (PoolStats{Workers: 4, InFlightQueries: 1}) || ps.Utilization() != 0.25 {
		t.Fatalf("mid-stream pool = %+v (utilization %v), want 1 query of 4 workers", ps, ps.Utilization())
	}
	stopStream()
	if ps := e.PoolStats(); ps != (PoolStats{Workers: 4}) {
		t.Fatalf("post-stream pool = %+v, want idle", ps)
	}
}
