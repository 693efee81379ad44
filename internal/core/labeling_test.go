package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
	"pathenum/internal/landmark"
	"pathenum/internal/workload"
)

// twoPassLabels is the reference labeling: two independent searches that
// each label the whole k-ball of their endpoint (the forward one never
// expands t, the backward one never expands s), with the oracle pruning of
// §7.5. bfsScratch.label must produce the same index from far fewer labels.
func twoPassLabels(g *graph.Graph, q Query, pred EdgePredicate, oracle DistanceOracle) (distS, distT []int32) {
	n := g.NumVertices()
	bound := int32(q.K)
	search := func(origin, far graph.VertexID, forward bool) []int32 {
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = distUnreachable
		}
		queue := []graph.VertexID{origin}
		dist[origin] = 0
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			d := dist[v]
			if d >= bound {
				break
			}
			if oracle != nil {
				lb := oracle.LowerBound(v, far)
				if !forward {
					lb = oracle.LowerBound(far, v)
				}
				if lb < 0 || d+lb > bound {
					continue
				}
			}
			nbrs := g.OutNeighbors(v)
			if !forward {
				nbrs = g.InNeighbors(v)
			}
			for _, w := range nbrs {
				if dist[w] != distUnreachable {
					continue
				}
				if pred != nil && (forward && !pred(v, w) || !forward && !pred(w, v)) {
					continue
				}
				dist[w] = d + 1
				if w != far {
					queue = append(queue, w)
				}
			}
		}
		return dist
	}
	return search(q.S, q.T, true), search(q.T, q.S, false)
}

// referenceIndex assembles the index from the two-pass labels with every
// vertex as a candidate, the O(|V|) build the labeling replaced.
func referenceIndex(g *graph.Graph, q Query, pred EdgePredicate, oracle DistanceOracle) *Index {
	n := g.NumVertices()
	distS, distT := twoPassLabels(g, q, pred, oracle)
	all := make([]graph.VertexID, n)
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	return buildIndex(g, q, labeling{distS: distS, distT: distT, cand: all}, pred, newPosMap(n))
}

// diffIndex names the first field in which two indexes differ, or "".
func diffIndex(a, b *Index) string {
	switch {
	case a.empty != b.empty:
		return "empty"
	case !slices.Equal(a.verts, b.verts):
		return "verts"
	case a.sPos != b.sPos || a.tPos != b.tPos:
		return "sPos/tPos"
	case !slices.Equal(a.vs, b.vs):
		return "vs"
	case !slices.Equal(a.vt, b.vt):
		return "vt"
	case !slices.Equal(a.fwdBase, b.fwdBase):
		return "fwdBase"
	case !slices.Equal(a.fwdOff, b.fwdOff):
		return "fwdOff"
	case !slices.Equal(a.fwdNbrs, b.fwdNbrs):
		return "fwdNbrs"
	case !slices.Equal(a.revBase, b.revBase):
		return "revBase"
	case !slices.Equal(a.revOff, b.revOff):
		return "revOff"
	case !slices.Equal(a.revNbrs, b.revNbrs):
		return "revNbrs"
	case !slices.Equal(a.cSize, b.cSize):
		return "cSize"
	case !slices.Equal(a.sumIt, b.sumIt):
		return "sumIt"
	case a.Edges() != b.Edges():
		return "Edges()"
	}
	return ""
}

// dropThirds is an edge predicate that removes about a third of the edges.
func dropThirds(u, v graph.VertexID) bool { return (u+v)%3 != 0 }

// labelingGraph draws a small random graph of one of three shapes: sparse
// (balls exhaust early), dense, and scale-free (hubs make one side
// expensive).
func labelingGraph(rng *rand.Rand) *graph.Graph {
	n := 6 + rng.Intn(45)
	switch rng.Intn(3) {
	case 0:
		return gen.ErdosRenyi(n, n+rng.Intn(n), rng.Int63())
	case 1:
		return gen.ErdosRenyi(n, n*4, rng.Int63())
	default:
		return gen.BarabasiAlbert(n, 1+rng.Intn(3), rng.Int63())
	}
}

// TestLabelingIndexIdentity: the budget-bounded bidirectional labeling must
// yield, field by field, the index of the two-pass reference — over random
// graphs, every k in 1..6, and plain / predicate / oracle-pruned searches.
// One scratch and one position map serve every query of a graph, so the
// O(touched) resets between runs are under test too.
func TestLabelingIndexIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	for trial := 0; trial < 150; trial++ {
		g := labelingGraph(rng)
		n := g.NumVertices()
		oracle, err := landmark.Build(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		scratch, pm := newBFSScratch(n), newPosMap(n)
		for rep := 0; rep < 8; rep++ {
			s, tt := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			for k := 1; k <= 6; k++ {
				q := Query{S: s, T: tt, K: k}
				for _, mode := range []struct {
					name   string
					pred   EdgePredicate
					oracle DistanceOracle
				}{{"plain", nil, nil}, {"predicate", dropThirds, nil}, {"oracle", nil, oracle}} {
					want := referenceIndex(g, q, mode.pred, mode.oracle)
					lab := scratch.label(g, q, mode.pred, mode.oracle, nil, nil)
					got := buildIndex(g, q, lab, mode.pred, pm)
					if d := diffIndex(want, got); d != "" {
						t.Fatalf("trial %d %v %s on %v: index field %s differs from the two-pass build", trial, q, mode.name, g, d)
					}
					if twoPass := 2 * n; lab.visited > twoPass {
						t.Fatalf("trial %d %v %s: labeled %d vertices, more than two full passes (%d)", trial, q, mode.name, lab.visited, twoPass)
					}
				}
			}
		}
	}
}

// TestLabelingSharedFrontierPathSets: with a Frontier standing in for the
// forward side, the backward side, or both, the emitted path *set* equals
// the unshared run's (the index may be the frontier's superset one), with
// and without a predicate, for every k in 1..6.
func TestLabelingSharedFrontierPathSets(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ctx := context.Background()
	const tok = PredicateToken(9)
	for trial := 0; trial < 60; trial++ {
		g := labelingGraph(rng)
		n := g.NumVertices()
		sess := NewSession(g, nil)
		s, tt := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		for k := 1; k <= 6; k++ {
			q := Query{S: s, T: tt, K: k}
			bound := k + rng.Intn(3)
			for _, mode := range []struct {
				name string
				pred EdgePredicate
				tok  PredicateToken
			}{{"plain", nil, PredicateNone}, {"predicate", dropThirds, tok}} {
				fwd, err := NewForwardFrontier(g, s, bound, mode.pred, mode.tok)
				if err != nil {
					t.Fatal(err)
				}
				bwd, err := NewBackwardFrontier(g, tt, bound, mode.pred, mode.tok)
				if err != nil {
					t.Fatal(err)
				}
				run := func(f, b *Frontier) []string {
					return collectPaths(t, func(o Options) (*Result, error) {
						o.Predicate, o.PredicateToken = mode.pred, mode.tok
						return sess.RunShared(ctx, q, o, f, b)
					})
				}
				want := run(nil, nil)
				for name, pair := range map[string][2]*Frontier{"fwd": {fwd, nil}, "bwd": {nil, bwd}, "both": {fwd, bwd}} {
					if got := run(pair[0], pair[1]); !equalStrings(want, got) {
						t.Fatalf("trial %d %v %s/%s: shared paths %v != unshared %v", trial, q, mode.name, name, got, want)
					}
				}
			}
		}
	}
}

// TestLabelingCornerCases pins the shapes the meet-in-the-middle schedule
// has to get right against the reference build and brute force.
func TestLabelingCornerCases(t *testing.T) {
	mk := func(n int, edges ...[2]int) *graph.Graph {
		es := make([]graph.Edge, len(edges))
		for i, e := range edges {
			es[i] = graph.Edge{From: graph.VertexID(e[0]), To: graph.VertexID(e[1])}
		}
		g, err := graph.NewGraph(n, es)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// A fan into t behind a two-hop chain from s: the forward ball is the
	// chain and exhausts at depth 2, long before a+b reaches k-1 for k=6.
	fan := [][2]int{{0, 1}, {1, 2}}
	for v := 3; v < 40; v++ {
		fan = append(fan, [2]int{v, 2}, [2]int{v + 40, v})
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		q     Query
		paths int
	}{
		{"adjacent k=1", mk(3, [2]int{0, 1}, [2]int{0, 2}, [2]int{2, 1}), Query{S: 0, T: 1, K: 1}, 1},
		{"adjacent k=3", mk(3, [2]int{0, 1}, [2]int{0, 2}, [2]int{2, 1}), Query{S: 0, T: 1, K: 3}, 2},
		{"k=1 not adjacent", mk(3, [2]int{0, 2}, [2]int{2, 1}), Query{S: 0, T: 1, K: 1}, 0},
		{"t unreachable", mk(5, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 4}), Query{S: 0, T: 4, K: 5}, 0},
		{"s has no out-edges", mk(4, [2]int{1, 2}, [2]int{2, 3}, [2]int{1, 0}), Query{S: 0, T: 3, K: 6}, 0},
		{"forward ball exhausts early", mk(80, fan...), Query{S: 0, T: 2, K: 6}, 1},
		{"backward ball exhausts early", mk(80, fan...).Reverse(), Query{S: 2, T: 0, K: 6}, 1},
		{"path only through t is excluded", mk(4, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{1, 3}), Query{S: 0, T: 1, K: 4}, 1},
	}
	for _, c := range cases {
		want := referenceIndex(c.g, c.q, nil, nil)
		got, err := BuildIndex(c.g, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := diffIndex(want, got); d != "" {
			t.Errorf("%s: index field %s differs from the two-pass build", c.name, d)
		}
		if n := len(collectDFS(t, got)); n != c.paths || n != len(brutePathsLocal(c.g, c.q.S, c.q.T, c.q.K)) {
			t.Errorf("%s: %d paths, want %d", c.name, n, c.paths)
		}
	}
}

// TestBFSVisitedIndependentOfGraphSize is the executable form of "no
// per-query pass over all vertices": padding the graph with ten times as
// many unreachable vertices changes neither the labels a query computes,
// nor its index, nor its paths.
func TestBFSVisitedIndependentOfGraphSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := gen.BarabasiAlbert(40+rng.Intn(60), 3, rng.Int63())
		n := g.NumVertices()
		padded, err := graph.NewGraph(11*n, g.Edges())
		if err != nil {
			t.Fatal(err)
		}
		small, big := NewSession(g, nil), NewSession(padded, nil)
		for rep := 0; rep < 10; rep++ {
			q := Query{S: graph.VertexID(rng.Intn(n)), T: graph.VertexID(rng.Intn(n)), K: 1 + rng.Intn(6)}
			if q.S == q.T {
				continue
			}
			var a, b *Result
			pa := collectPaths(t, func(o Options) (r *Result, err error) { a, err = small.Run(q, o); return a, err })
			pb := collectPaths(t, func(o Options) (r *Result, err error) { b, err = big.Run(q, o); return b, err })
			if a.BFSVisited != b.BFSVisited || a.BFSVisited == 0 {
				t.Fatalf("%v: BFSVisited %d on %d vertices, %d on %d", q, a.BFSVisited, n, b.BFSVisited, 11*n)
			}
			if a.IndexVertices != b.IndexVertices || a.IndexEdges != b.IndexEdges {
				t.Fatalf("%v: index %d/%d vs padded %d/%d", q, a.IndexVertices, a.IndexEdges, b.IndexVertices, b.IndexEdges)
			}
			if !equalStrings(pa, pb) {
				t.Fatalf("%v: paths differ under padding", q)
			}
		}
	}
}

// TestBFSVisitedBoundedOnLargeGraph: on the 120k-vertex scalability graph a
// light query labels a small fraction of the graph, where the two-pass
// search labeled both k-balls (about 2|V|).
func TestBFSVisitedBoundedOnLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 120k-vertex tm graph")
	}
	d, err := gen.Lookup("tm")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	n := g.NumVertices()
	for _, c := range []struct {
		setting workload.Setting
		limit   int
	}{{workload.LowLow, n / 10}, {workload.HighHigh, n / 4}} {
		qs, err := workload.Generate(g, workload.Options{Setting: c.setting, Count: 100, MaxDist: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(g, nil)
		var visited []int
		for _, wq := range qs {
			res, err := sess.Run(Query{S: wq.S, T: wq.T, K: 4}, Options{Limit: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.BFSVisited >= c.limit {
				t.Errorf("%v q(%d,%d,4): labeled %d vertices, want < %d of %d", c.setting, wq.S, wq.T, res.BFSVisited, c.limit, n)
			}
			visited = append(visited, res.BFSVisited)
		}
		slices.Sort(visited)
		t.Logf("%v k=4: BFSVisited median %d, max %d of |V| = %d", c.setting, visited[len(visited)/2], visited[len(visited)-1], n)
	}
}
