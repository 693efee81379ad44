package core

import (
	"math/rand"
	"sort"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
	"pathenum/internal/landmark"
)

// TestSessionMatchesRun: the buffer-reusing session produces the same
// results as the one-shot driver across a query stream.
func TestSessionMatchesRun(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 5)
	sess := NewSession(g, nil)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		s := graph.VertexID(rng.Intn(200))
		tt := graph.VertexID(rng.Intn(200))
		if s == tt {
			continue
		}
		q := Query{S: s, T: tt, K: 2 + rng.Intn(4)}
		want, err := Run(g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.Run(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters.Results != want.Counters.Results {
			t.Fatalf("trial %d %v: session %d, run %d",
				trial, q, got.Counters.Results, want.Counters.Results)
		}
		if got.IndexEdges != want.IndexEdges || got.IndexVertices != want.IndexVertices {
			t.Fatalf("trial %d %v: index stats differ", trial, q)
		}
	}
}

// TestSessionCleanAfterLimitStop: enumeration state is per run, so a run
// stopped mid-search by Limit — the DFS with a partial result on its stack,
// the join mid-probe — leaves nothing behind: the next run on the session
// returns the exact brute-force path set.
func TestSessionCleanAfterLimitStop(t *testing.T) {
	g := gen.Layered(6, 4)
	sess := NewSession(g, nil)
	q := Query{S: 0, T: 1, K: 5}
	var want []string
	for _, p := range brutePathsLocal(g, q.S, q.T, q.K) {
		want = append(want, pathKey(p))
	}
	sort.Strings(want)
	for _, method := range []Method{MethodDFS, MethodJoin} {
		res, err := sess.Run(q, Options{Limit: 3, Method: method})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed || res.Counters.Results != 3 {
			t.Fatalf("%v limit-stopped run: completed=%v results=%d, want a stop at 3", method, res.Completed, res.Counters.Results)
		}
		got := collectPaths(t, func(o Options) (*Result, error) {
			o.Method = method
			return sess.Run(q, o)
		})
		if !equalStrings(want, got) {
			t.Fatalf("%v run after a limit stop: %d paths, brute force %d", method, len(got), len(want))
		}
	}
}

// TestSessionWithOracle: session-level oracle short-circuits infeasible
// queries and agrees elsewhere.
func TestSessionWithOracle(t *testing.T) {
	n := 30
	var edges []graph.Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, graph.Edge{From: int32(i), To: int32(i + 1)})
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := landmark.Build(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(g, oracle)
	// Infeasible: dist = 29 > k.
	res, err := sess.Run(Query{S: 0, T: int32(n - 1), K: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 0 || !res.Completed {
		t.Fatalf("infeasible run: %+v", res)
	}
	// Feasible nearby query.
	res, err = sess.Run(Query{S: 0, T: 4, K: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 1 {
		t.Fatalf("line query: %d results, want 1", res.Counters.Results)
	}
}

func TestSessionValidation(t *testing.T) {
	g := gen.Cycle(5)
	sess := NewSession(g, nil)
	if _, err := sess.Run(Query{S: 1, T: 1, K: 3}, Options{}); err == nil {
		t.Fatal("s == t: expected error")
	}
	if sess.Graph() != g {
		t.Fatal("Graph accessor mismatch")
	}
}

// TestSessionJoinMethod: the join path also works through a session.
func TestSessionJoinMethod(t *testing.T) {
	g := gen.Layered(4, 3)
	sess := NewSession(g, nil)
	res, err := sess.Run(Query{S: 0, T: 1, K: 4}, Options{Method: MethodJoin})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 64 {
		t.Fatalf("join via session: %d results, want 64", res.Counters.Results)
	}
}

// BenchmarkSessionVsRun quantifies the allocation savings of buffer reuse.
func BenchmarkSessionVsRun(b *testing.B) {
	g := gen.BarabasiAlbert(5000, 6, 77)
	q := Query{S: 0, T: 9, K: 4}
	b.Run("Run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(g, q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Session", func(b *testing.B) {
		sess := NewSession(g, nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Run(q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
