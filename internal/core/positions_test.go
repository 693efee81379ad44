package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
	"pathenum/internal/landmark"
)

// idAdjacency computes, straight from a labeling and without positions,
// what the index adjacency must translate back to: X in ascending id order
// and, per member, It(v,k) and Is(v,k) as vertex ids in the index's order
// (ascending w.t / w.s, ties in graph adjacency order, t's padding loop last
// in its bucket).
func idAdjacency(g *graph.Graph, q Query, distS, distT []int32, pred EdgePredicate) (verts []graph.VertexID, out, in [][]graph.VertexID) {
	k := int32(q.K)
	inX := func(v graph.VertexID) bool {
		return distS[v] >= 0 && distT[v] >= 0 && distS[v]+distT[v] <= k
	}
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if !inX(v) {
			continue
		}
		var o, i []graph.VertexID
		if v == q.T {
			o = append(o, q.T)
		} else {
			for _, w := range g.OutNeighbors(v) {
				if w != q.S && (pred == nil || pred(v, w)) && distT[w] >= 0 && distS[v]+distT[w]+1 <= k {
					o = append(o, w)
				}
			}
		}
		if v != q.S {
			for _, w := range g.InNeighbors(v) {
				if w != q.T && inX(w) && (pred == nil || pred(w, v)) && distS[w]+distT[v]+1 <= k {
					i = append(i, w)
				}
			}
			if v == q.T {
				i = append(i, q.T)
			}
		}
		slices.SortStableFunc(o, func(a, b graph.VertexID) int { return int(distT[a] - distT[b]) })
		slices.SortStableFunc(i, func(a, b graph.VertexID) int { return int(distS[a] - distS[b]) })
		verts, out, in = append(verts, v), append(out, o), append(in, i)
	}
	return verts, out, in
}

// TestIndexPositions: the adjacency the index stores as positions is the
// adjacency the labeling defines in vertex ids — every entry a valid
// position, the translated lists equal to idAdjacency's, the reverse lists
// the transpose of the forward ones, sPos/tPos on s and t — over random
// graphs, every k in 1..6, and plain / predicate / oracle-pruned /
// shared-frontier labelings. One scratch and one position map serve every
// build of a graph, as in a session.
func TestIndexPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(2715))
	for trial := 0; trial < 100; trial++ {
		g := labelingGraph(rng)
		n := g.NumVertices()
		oracle, err := landmark.Build(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		scratch, pm := newBFSScratch(n), newPosMap(n)
		for rep := 0; rep < 6; rep++ {
			s, tt := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			if s == tt {
				continue
			}
			for k := 1; k <= 6; k++ {
				q := Query{S: s, T: tt, K: k}
				fwd, err := NewForwardFrontier(g, s, k+rng.Intn(3), nil, PredicateNone)
				if err != nil {
					t.Fatal(err)
				}
				bwd, err := NewBackwardFrontier(g, tt, k+rng.Intn(3), nil, PredicateNone)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []struct {
					name     string
					pred     EdgePredicate
					oracle   DistanceOracle
					fwd, bwd *Frontier
				}{
					{name: "plain"},
					{name: "predicate", pred: dropThirds},
					{name: "oracle", oracle: oracle},
					{name: "shared fwd", fwd: fwd},
					{name: "shared bwd", bwd: bwd},
					{name: "shared both", fwd: fwd, bwd: bwd},
				} {
					lab := scratch.label(g, q, mode.pred, mode.oracle, mode.fwd, mode.bwd)
					ix := buildIndex(g, q, lab, mode.pred, pm)
					if ix.empty {
						continue
					}
					verts, out, in := idAdjacency(g, q, lab.distS, lab.distT, mode.pred)
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("trial %d %v %s on %v: "+format, append([]any{trial, q, mode.name, g}, args...)...)
					}
					if !slices.Equal(ix.verts, verts) {
						fail("verts %v, want %v", ix.verts, verts)
					}
					if ix.verts[ix.sPos] != s || ix.verts[ix.tPos] != tt {
						fail("sPos/tPos %d/%d point at %d/%d", ix.sPos, ix.tPos, ix.verts[ix.sPos], ix.verts[ix.tPos])
					}
					m := int32(len(verts))
					edges := make(map[[2]int32]int) // forward (from, to) minus reverse
					for p := int32(0); p < m; p++ {
						for dir, ps := range [2][]int32{ix.outUpToPos(p, k), ix.inUpToPos(p, k)} {
							for _, wp := range ps {
								if wp < 0 || wp >= m {
									fail("position %d of %d has neighbor entry %d (direction %d)", p, m, wp, dir)
								}
								if dir == 0 {
									edges[[2]int32{p, wp}]++
								} else {
									edges[[2]int32{wp, p}]--
								}
							}
						}
						if got := ix.ids(ix.outUpToPos(p, k)); !slices.Equal(got, out[p]) {
							fail("It(%d) = %v, want %v", verts[p], got, out[p])
						}
						if got := ix.ids(ix.inUpToPos(p, k)); !slices.Equal(got, in[p]) {
							fail("Is(%d) = %v, want %v", verts[p], got, in[p])
						}
					}
					if len(ix.fwdNbrs) != len(ix.revNbrs) {
						fail("%d forward entries, %d reverse", len(ix.fwdNbrs), len(ix.revNbrs))
					}
					for e, d := range edges {
						if d != 0 {
							fail("edge %d->%d: forward minus reverse multiplicity %d", verts[e[0]], verts[e[1]], d)
						}
					}
				}
			}
		}
	}
}

// allocBytes is the heap bytes one call of run allocates: the smallest of a
// few measurements, so a goroutine or buffer the runtime happened to recycle
// (or not) in one of them does not show.
func allocBytes(run func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestEnumerationAllocIndependentOfGraphSize: every enumerator's state is
// sized by the index, so on a built index each allocates the same number of
// bytes whether the graph is g or g padded with ten times as many
// unreachable vertices.
func TestEnumerationAllocIndependentOfGraphSize(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 19)
	n := g.NumVertices()
	padded, err := graph.NewGraph(11*n, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 7, K: 5}
	cons := Constraints{Accumulate: &Accumulator{
		Value:   func(from, to graph.VertexID) float64 { return 1 },
		Combine: func(a, b float64) float64 { return a + b },
		Accept:  func(total float64) bool { return int(total)%2 == 1 },
	}}
	ctl := RunControl{}
	const cut = 2
	runs := []struct {
		name string
		run  func(ix *Index)
	}{
		{"EnumerateDFS", func(ix *Index) { EnumerateDFS(ix, ctl, nil) }},
		{"EnumerateJoinSide/left", func(ix *Index) { EnumerateJoinSide(ix, cut, BuildLeft, ctl, nil, nil) }},
		{"EnumerateJoinSide/right", func(ix *Index) { EnumerateJoinSide(ix, cut, BuildRight, ctl, nil, nil) }},
		{"EnumerateConstrainedDFS", func(ix *Index) { EnumerateConstrainedDFS(ix, cons, ctl, nil) }},
	}
	small, big := mustIndex(t, g, q), mustIndex(t, padded, q)
	if small.NumIndexed() < 50 || small.NumIndexed() != big.NumIndexed() {
		t.Fatalf("fixture: |X| = %d on g, %d on padded g", small.NumIndexed(), big.NumIndexed())
	}
	for _, r := range runs {
		a := allocBytes(func() { r.run(small) })
		b := allocBytes(func() { r.run(big) })
		if a != b || a == 0 {
			t.Errorf("%s: %d bytes on %d vertices, %d bytes on %d", r.name, a, n, b, 11*n)
		}
	}
}
