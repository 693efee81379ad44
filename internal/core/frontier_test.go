package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// collectPaths runs fn with an Emit that materializes every path as a
// string, returning the sorted set.
func collectPaths(t *testing.T, run func(Options) (*Result, error)) []string {
	t.Helper()
	var out []string
	res, err := run(Options{Emit: func(p []graph.VertexID) bool {
		var sb strings.Builder
		for i, v := range p {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(itoa(int(v)))
		}
		out = append(out, sb.String())
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run must complete")
	}
	sort.Strings(out)
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunSharedMatchesRun: executing with a shared frontier on either (or
// both) sides must emit exactly the path set of the per-query pipeline,
// even though frontier labels are a relaxation (full-graph BFS, larger
// bound) of the per-query ones. This is the correctness contract the
// engine's frontier cache rests on.
func TestRunSharedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(40)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(4)
		q := Query{S: s, T: tt, K: k}
		bound := k + rng.Intn(3) // frontiers may be built to a larger bound

		fwd, err := NewForwardFrontier(g, s, bound, nil, PredicateNone)
		if err != nil {
			t.Fatal(err)
		}
		bwd, err := NewBackwardFrontier(g, tt, bound, nil, PredicateNone)
		if err != nil {
			t.Fatal(err)
		}

		sess := NewSession(g, nil)
		want := collectPaths(t, func(o Options) (*Result, error) { return Run(g, q, o) })
		for name, pair := range map[string][2]*Frontier{
			"fwd":  {fwd, nil},
			"bwd":  {nil, bwd},
			"both": {fwd, bwd},
		} {
			got := collectPaths(t, func(o Options) (*Result, error) {
				return sess.RunShared(ctx, q, o, pair[0], pair[1])
			})
			if !equalStrings(want, got) {
				t.Fatalf("trial %d %v (%s): shared paths %v != per-query %v", trial, q, name, got, want)
			}
		}
	}
}

// TestRunSharedPredicate: a predicate-constrained query must agree with the
// per-query pipeline when the shared frontier was built under the same
// predicate.
func TestRunSharedPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		n := 12 + rng.Intn(30)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		q := Query{S: s, T: tt, K: 3 + rng.Intn(3)}
		// Drop edges whose endpoint sum is divisible by 5: deterministic,
		// stateless, safe for concurrent calls.
		pred := func(from, to graph.VertexID) bool { return (int(from)+int(to))%5 != 0 }

		fwd, err := NewForwardFrontier(g, s, q.K, pred, 7)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(g, nil)
		want := collectPaths(t, func(o Options) (*Result, error) {
			o.Predicate = pred
			return Run(g, q, o)
		})
		got := collectPaths(t, func(o Options) (*Result, error) {
			o.Predicate = pred
			o.PredicateToken = 7
			return sess.RunShared(ctx, q, o, fwd, nil)
		})
		if !equalStrings(want, got) {
			t.Fatalf("trial %d %v: predicate shared paths %v != per-query %v", trial, q, got, want)
		}
	}
}

// TestFrontierValidation: mismatched frontiers must be rejected, not
// silently produce wrong indexes.
func TestFrontierValidation(t *testing.T) {
	g := gen.BarabasiAlbert(20, 2, 1)
	other := gen.BarabasiAlbert(20, 2, 2)
	ctx := context.Background()
	sess := NewSession(g, nil)
	q := Query{S: 0, T: 5, K: 4}

	fwd, err := NewForwardFrontier(g, 0, 4, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := NewBackwardFrontier(g, 5, 4, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		fwd, bwd *Frontier
		q        Query
	}{
		{"wrong origin fwd", mustFwd(t, g, 1, 4), nil, q},
		{"wrong origin bwd", nil, mustBwd(t, g, 6, 4), q},
		{"direction swap", bwd, nil, q},
		{"bound too small", mustFwd(t, g, 0, 2), nil, q},
		{"wrong graph", mustFwd(t, other, 0, 4), nil, q},
	}
	for _, tc := range cases {
		if _, err := sess.RunShared(ctx, tc.q, Options{}, tc.fwd, tc.bwd); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Predicate identity is declared by token (see PredicateToken):
	// frontier built with a predicate but query without, the reverse,
	// distinct tokens, and an opaque (token-less) predicate are all
	// rejected; only the matching token is accepted.
	predA := func(from, to graph.VertexID) bool { return from < to }
	predB := func(from, to graph.VertexID) bool { return from > to }
	fwdPred, err := NewForwardFrontier(g, 0, 4, predA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewForwardFrontier(g, 0, 4, predA, PredicateNone); err == nil {
		t.Error("opaque predicate (no token) frontier construction: expected error")
	}
	if _, err := NewForwardFrontier(g, 0, 4, nil, 3); err == nil {
		t.Error("token without predicate: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{}, fwdPred, nil); err == nil {
		t.Error("frontier predicate vs nil query predicate: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predA, PredicateToken: 1}, fwd, nil); err == nil {
		t.Error("nil frontier predicate vs query predicate: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predB, PredicateToken: 2}, fwdPred, nil); err == nil {
		t.Error("different predicate tokens: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predA}, fwdPred, nil); err == nil {
		t.Error("opaque query predicate (no token): expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predA, PredicateToken: 1}, fwdPred, nil); err != nil {
		t.Fatalf("matching predicate token rejected: %v", err)
	}
	// Sanity: the matching pair is accepted.
	if _, err := sess.RunShared(ctx, q, Options{}, fwd, bwd); err != nil {
		t.Fatalf("valid frontiers rejected: %v", err)
	}

	if _, err := NewForwardFrontier(g, -1, 4, nil, PredicateNone); err == nil {
		t.Error("negative origin: expected error")
	}
	if _, err := NewBackwardFrontier(g, 0, 0, nil, PredicateNone); err == nil {
		t.Error("zero bound: expected error")
	}
}

func mustFwd(t *testing.T, g *graph.Graph, s graph.VertexID, bound int) *Frontier {
	t.Helper()
	f, err := NewForwardFrontier(g, s, bound, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustBwd(t *testing.T, g *graph.Graph, v graph.VertexID, bound int) *Frontier {
	t.Helper()
	f, err := NewBackwardFrontier(g, v, bound, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// referenceBFS is the reference frontier labeling: a plain queue-driven
// bounded BFS from origin over the full graph, top-down at every level. It
// also returns the edges it scanned, the out-degrees (in-degrees backward)
// of the vertices it expanded.
func referenceBFS(g *graph.Graph, origin graph.VertexID, bound int, forward bool, pred EdgePredicate) ([]int32, int64) {
	dist := minusOnes(g.NumVertices())
	queue := []graph.VertexID{origin}
	dist[origin] = 0
	var scanned int64
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := dist[v]
		if d >= int32(bound) {
			break
		}
		nbrs := g.OutNeighbors(v)
		if !forward {
			nbrs = g.InNeighbors(v)
		}
		scanned += int64(len(nbrs))
		for _, w := range nbrs {
			if dist[w] != distUnreachable {
				continue
			}
			if pred != nil && (forward && !pred(v, w) || !forward && !pred(w, v)) {
				continue
			}
			dist[w] = d + 1
			queue = append(queue, w)
		}
	}
	return dist, scanned
}

// starHub is a random sparse graph plus a hub (vertex 0) with an edge to
// and from every other vertex: the hub's level is the whole graph, the
// shape that sends the next level bottom-up.
func starHub(rng *rand.Rand) *graph.Graph {
	n := 8 + rng.Intn(60)
	edges := gen.ErdosRenyi(n, n, rng.Int63()).Edges()
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{From: 0, To: graph.VertexID(v)}, graph.Edge{From: graph.VertexID(v), To: 0})
	}
	g, err := graph.NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// checkFrontierDist builds the frontier of origin through the level kernel
// and compares its labels, vertex by vertex, with the reference BFS. It
// returns the edges each scanned.
func checkFrontierDist(t testing.TB, g *graph.Graph, origin graph.VertexID, bound int, forward bool, pred EdgePredicate) (kernel, reference int64) {
	t.Helper()
	want, refScanned := referenceBFS(g, origin, bound, forward, pred)
	sd := growFrontier(g, origin, bound, forward, pred)
	if !slices.Equal(sd.dist, want) {
		i := 0
		for sd.dist[i] == want[i] {
			i++
		}
		t.Fatalf("frontier of %d (bound %d, forward %v, predicate %v) on %v: dist[%d] = %d, reference %d",
			origin, bound, forward, pred != nil, g, i, sd.dist[i], want[i])
	}
	return sd.scanned, refScanned
}

// TestFrontierMatchesReferenceBFS: the level kernel behind both Frontier
// constructors, top-down or bottom-up level by level, labels exactly what
// the plain bounded BFS labels — over the labeling test shapes, star hubs
// and a graph padded with ten times as many isolated vertices, every bound
// in 1..6, both directions, with no predicate, a symmetric and an
// asymmetric one. On a star hub the level after the hub must have gone
// bottom-up: fewer edges scanned than the reference.
func TestFrontierMatchesReferenceBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	var graphs []*graph.Graph
	for i := 0; i < 60; i++ {
		graphs = append(graphs, labelingGraph(rng))
	}
	for i := 0; i < 10; i++ {
		graphs = append(graphs, starHub(rng))
	}
	small := gen.BarabasiAlbert(50, 3, 8)
	padded, err := graph.NewGraph(11*small.NumVertices(), small.Edges())
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, small, padded)
	for _, g := range graphs {
		n := g.NumVertices()
		for _, origin := range []graph.VertexID{0, graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))} {
			for bound := 1; bound <= 6; bound++ {
				for _, forward := range []bool{true, false} {
					for _, pred := range []EdgePredicate{nil, dropThirds, skewThirds} {
						checkFrontierDist(t, g, origin, bound, forward, pred)
					}
				}
			}
		}
	}
	for i := 0; i < 10; i++ {
		g := starHub(rng)
		leaf := graph.VertexID(1 + rng.Intn(g.NumVertices()-1))
		if kernel, reference := checkFrontierDist(t, g, leaf, 2, true, nil); kernel >= reference {
			t.Fatalf("star hub %v from leaf %d: kernel scanned %d edges, reference %d: the level after the hub did not go bottom-up", g, leaf, kernel, reference)
		}
	}
}

// BenchmarkFrontierBuild times one backward frontier build from the
// highest in-degree vertex of the tm (k=4) and lj (k=5) graphs, the
// deposits of light_large and serve_mixed, and reports the edges the build
// scanned.
func BenchmarkFrontierBuild(b *testing.B) {
	for _, c := range []struct {
		dataset string
		k       int
	}{{"tm", 4}, {"lj", 5}} {
		d, err := gen.Lookup(c.dataset)
		if err != nil {
			b.Fatal(err)
		}
		g := d.Build()
		hub := graph.VertexID(0)
		for v := range graph.VertexID(g.NumVertices()) {
			if g.InDegree(v) > g.InDegree(hub) {
				hub = v
			}
		}
		b.Run(c.dataset+"/k="+itoa(c.k), func(b *testing.B) {
			var scanned int64
			for i := 0; i < b.N; i++ {
				scanned = growFrontier(g, hub, c.k, false, nil).scanned
			}
			b.ReportMetric(float64(scanned), "edges/op")
		})
	}
}
