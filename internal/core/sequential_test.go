package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// runCollect runs q on a fresh session with opts and returns the emitted
// paths in emission order. Every Emit call checks that the run started no
// goroutine: the count it reads must not exceed the count before the run
// (goroutines an earlier test left winding down may exit meanwhile).
func runCollect(t *testing.T, g *graph.Graph, q Query, opts Options) ([]string, *Result) {
	t.Helper()
	var keys []string
	before := runtime.NumGoroutine()
	opts.Emit = func(p []graph.VertexID) bool {
		if now := runtime.NumGoroutine(); now > before {
			t.Fatalf("%d goroutines inside Emit, %d before the run (q=%v)", now, before, q)
		}
		keys = append(keys, pathKey(p))
		return true
	}
	res, err := NewSession(g, nil).Run(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return keys, res
}

// TestParallelDFSMatchesSequential: Options.Parallelism is not read. A
// DFS-planned Session.Run with Parallelism 4 enumerates on the caller's
// goroutine and emits the sequential run's paths, in its order, with its
// Counters.
func TestParallelDFSMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trials := 0; trials < 25; {
		n := 8 + rng.Intn(30)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		q := Query{S: graph.VertexID(rng.Intn(n)), T: graph.VertexID(rng.Intn(n)), K: 2 + rng.Intn(4)}
		if q.S == q.T {
			continue
		}
		trials++
		seq, seqRes := runCollect(t, g, q, Options{Method: MethodDFS})
		got, res := runCollect(t, g, q, Options{Method: MethodDFS, Parallelism: 4})
		if !slices.Equal(got, seq) {
			t.Fatalf("Parallelism 4: paths %v, sequential %v (q=%v)", got, seq, q)
		}
		if res.Counters != seqRes.Counters || !res.Completed {
			t.Fatalf("Parallelism 4: counters %+v (completed %v), sequential %+v (q=%v)", res.Counters, res.Completed, seqRes.Counters, q)
		}
	}
}

// TestParallelJoinMatchesSequential: the same for join plans at every cut
// the optimizer can pick — the paths in order, the Counters and the
// JoinStats footprint (one build side, one in-flight probe walk) equal
// the sequential run's.
func TestParallelJoinMatchesSequential(t *testing.T) {
	for _, shape := range [][2]int{{4, 4}, {3, 5}, {5, 3}} {
		g, q := layeredGraph(t, shape[0], shape[1])
		seq, seqRes := runCollect(t, g, q, Options{Method: MethodJoin})
		got, res := runCollect(t, g, q, Options{Method: MethodJoin, Parallelism: 4})
		if res.Plan.Method != MethodJoin {
			t.Fatalf("%v: plan %v, want a join", q, res.Plan.Method)
		}
		if !slices.Equal(got, seq) {
			t.Fatalf("%v Parallelism 4: %d paths differ from the sequential %d", q, len(got), len(seq))
		}
		if res.Counters != seqRes.Counters || !res.Completed {
			t.Fatalf("%v Parallelism 4: counters %+v (completed %v), sequential %+v", q, res.Counters, res.Completed, seqRes.Counters)
		}
		a, b := res.JoinStats, seqRes.JoinStats
		a.BuildTime, a.ProbeTime, b.BuildTime, b.ProbeTime = 0, 0, 0, 0
		if a != b {
			t.Fatalf("%v Parallelism 4: join stats %+v, sequential %+v", q, a, b)
		}
	}
}
