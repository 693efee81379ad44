package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// TestRunContextMatchesRun: the context variant with a background context
// is exactly Run.
func TestRunContextMatchesRun(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 5)
	q := Query{S: 0, T: 9, K: 4}
	want, err := Run(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters.Results != want.Counters.Results || got.IndexEdges != want.IndexEdges {
		t.Fatalf("RunContext %+v, Run %+v", got.Counters, want.Counters)
	}
}

// TestRunContextCancelMidRun: cancelling the context mid-enumeration stops
// a heavy query long before natural completion and reports Completed=false.
// The cancel fires deterministically from the Emit callback (which keeps
// returning true, so only the context can stop the run).
func TestRunContextCancelMidRun(t *testing.T) {
	g := gen.Layered(24, 5) // 24^5 ~ 8M paths
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted uint64
	res, err := RunContext(ctx, g, Query{S: 0, T: 1, K: 6}, Options{
		Method: MethodDFS,
		Emit: func([]graph.VertexID) bool {
			emitted++
			if emitted == 100 {
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("cancelled run must not complete")
	}
	// The amortized check fires within stopCheckInterval expansions, so the
	// run must stop far short of the 8M results.
	if res.Counters.Results < 100 || res.Counters.Results > 1_000_000 {
		t.Fatalf("cancelled run saw %d results", res.Counters.Results)
	}
}

// TestRunContextPreCancelled: an already-cancelled context is rejected at
// entry, before any BFS or index build.
func TestRunContextPreCancelled(t *testing.T) {
	g := gen.Layered(24, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, g, Query{S: 0, T: 1, K: 6}, Options{Method: MethodDFS})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("pre-cancelled run must not produce a result: %+v", res)
	}
}

// TestRunContextDeadline: a context deadline behaves like Options.Timeout.
func TestRunContextDeadline(t *testing.T) {
	g := gen.Layered(24, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, g, Query{S: 0, T: 1, K: 6}, Options{Method: MethodDFS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("deadline run must not complete")
	}
	if res.Counters.Results == 0 {
		t.Fatal("deadline run should still find some results")
	}
}

// TestSessionRunContextCancel: the session path observes the context too,
// and the session remains usable after a cancelled run.
func TestSessionRunContextCancel(t *testing.T) {
	g := gen.Layered(24, 5)
	sess := NewSession(g, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var emitted uint64
	res, err := sess.RunContext(ctx, Query{S: 0, T: 1, K: 6}, Options{
		Method: MethodDFS,
		Emit: func([]graph.VertexID) bool {
			emitted++
			if emitted == 100 {
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("cancelled session run must not complete")
	}
	// An already-dead context is rejected at entry on the session path too.
	if _, err := sess.RunContext(ctx, Query{S: 0, T: 1, K: 6}, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled session run: err = %v, want context.Canceled", err)
	}
	// The cancelled run leaves nothing behind: the next run answers fully.
	res2, err := sess.RunContext(context.Background(), Query{S: 0, T: 1, K: 3}, Options{Method: MethodDFS})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Completed {
		t.Fatal("fresh run after cancellation must complete")
	}
}

// TestNewStopper: the stopper is nil exactly when the run is unbounded, so
// enumeration skips the poll entirely.
func TestNewStopper(t *testing.T) {
	if s := newStopper(context.Background(), 0); s != nil {
		t.Fatal("unbounded run must have a nil stopper")
	}
	if s := newStopper(context.Background(), time.Hour); s == nil || s() {
		t.Fatal("timeout-bounded stopper must exist and not fire early")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := newStopper(ctx, 0)
	if s == nil || s() {
		t.Fatal("cancellable stopper must exist and not fire before cancel")
	}
	cancel()
	if !s() {
		t.Fatal("stopper must fire after cancel")
	}
	// The tighter of context deadline and Options.Timeout wins.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	if s := newStopper(dctx, time.Hour); s == nil || !s() {
		t.Fatal("expired context deadline must fire despite a long timeout")
	}
}
