package core

import (
	"slices"
	"time"

	"pathenum/internal/graph"
)

// Index is the query-dependent light-weight index of §4.2 (Algorithm 3).
//
// For a query q(s,t,k) it stores, for every vertex v with
// S(s,v|G-{t}) + S(v,t|G-{s}) <= k (the partition X):
//
//   - the distance labels v.s and v.t;
//   - the out-neighbors w of v that can still reach t within budget
//     (v.s + w.t + 1 <= k), sorted ascending by w.t, with per-vertex prefix
//     offsets so It(v,b) — "neighbors w with w.t <= b" — is an O(1) slice;
//   - the mirrored in-neighbor lists sorted by w.s for Is(v,b), used by the
//     backward dynamic program of the join-order optimizer (Algorithm 5).
//
// X is numbered densely: the vertex at position p is verts[p] (ascending
// id), and everything else — labels, adjacency, the searchers' state — is
// addressed by position, so nothing that walks the index is sized by |V|.
// Vertex ids reappear only where a path is handed to a caller. An Index
// owns all of its storage and stays valid for as long as it is referenced.
//
// Following the relation construction of §3.1, edges into s and out of t
// are excluded, and t carries the single padding self-loop (t,t) so that
// paths shorter than k survive the chain join (property 3 of §3.1).
// Appendix B proves this edge set equals the full-reducer output of
// Algorithm 2; the tests verify that equivalence.
type Index struct {
	g    *graph.Graph
	q    Query
	k    int
	pred EdgePredicate // optional edge filter (Appendix E); nil = all edges

	empty bool // s or t fell outside X: the query has no results

	verts      []graph.VertexID // vertices of X in ascending id order
	sPos, tPos int32            // positions of q.S and q.T
	vs         []int32          // per position: v.s
	vt         []int32          // per position: v.t

	fwdNbrs []int32 // positions
	fwdBase []int64 // len(verts)+1
	fwdOff  []int32 // len(verts)*(k+2) prefix counts keyed by w.t

	revNbrs []int32 // positions
	revBase []int64
	revOff  []int32 // prefix counts keyed by w.s

	cSize []int64  // |C_i| for i = 0..k
	sumIt []uint64 // sum over C_i of |It(v, k-i-1)| for i = 0..k-1 (Eq. 5 stats)

	edges int64 // index edges excluding the (t,t) padding loop
}

// BuildIndex constructs the light-weight index for q on g (Algorithm 3).
// Construction touches only what the hop budget can use from both ends (see
// bfsScratch.label) plus, for this one-shot form, the O(|V|) buffers a
// Session would reuse.
func BuildIndex(g *graph.Graph, q Query) (*Index, error) {
	ix, _, err := buildOneShot(g, q, nil, nil)
	return ix, err
}

// IndexBuildTimings reports the phases of one index construction: the
// distance labeling (line 1 of Algorithm 3) and the total build.
type IndexBuildTimings struct {
	BFS   time.Duration
	Total time.Duration
}

// BuildIndexTimed builds the index while timing the labeling phase
// separately, feeding the per-technique breakdowns of Figures 12 and 17.
func BuildIndexTimed(g *graph.Graph, q Query) (*Index, IndexBuildTimings, error) {
	return buildOneShot(g, q, nil, nil)
}

// BuildIndexFiltered constructs the index for q on the subgraph of edges
// satisfying pred, implementing the predicate-constraint extension of
// Appendix E without materializing the subgraph: the labeling and both
// adjacency passes consult the predicate directly.
func BuildIndexFiltered(g *graph.Graph, q Query, pred EdgePredicate) (*Index, error) {
	ix, _, err := buildOneShot(g, q, pred, nil)
	return ix, err
}

// buildOneShot is the build behind the BuildIndex* entry points: validate,
// label with throwaway buffers, assemble.
func buildOneShot(g *graph.Graph, q Query, pred EdgePredicate, oracle DistanceOracle) (*Index, IndexBuildTimings, error) {
	if err := q.Validate(g); err != nil {
		return nil, IndexBuildTimings{}, err
	}
	start := time.Now()
	n := g.NumVertices()
	lab := newBFSScratch(n).label(g, q, pred, oracle, nil, nil)
	bfs := time.Since(start)
	ix := buildIndex(g, q, lab, pred, newPosMap(n))
	return ix, IndexBuildTimings{BFS: bfs, Total: time.Since(start)}, nil
}

// buildForward fills the neighbor lists sorted by w.t (lines 5-11). A kept
// edge v->w has v.s + w.t + 1 <= k, and the labeling reached w from v, so
// w.s + w.t <= k: every kept target is in X and pos[w] is its position.
func (ix *Index) buildForward(distT, pos []int32) {
	g, q, k := ix.g, ix.q, ix.k
	m := len(ix.verts)
	k32 := int32(k)

	keep := func(p int, v, w graph.VertexID) bool {
		if w == q.S { // no edges into s (relation property 2)
			return false
		}
		if ix.pred != nil && !ix.pred(v, w) {
			return false
		}
		wt := distT[w]
		return wt >= 0 && ix.vs[p]+wt+1 <= k32
	}

	ix.fwdBase = make([]int64, m+1)
	for p, v := range ix.verts {
		if v == q.T {
			ix.fwdBase[p+1] = ix.fwdBase[p] + 1 // the (t,t) loop only
			continue
		}
		cnt := int64(0)
		for _, w := range g.OutNeighbors(v) {
			if keep(p, v, w) {
				cnt++
			}
		}
		ix.fwdBase[p+1] = ix.fwdBase[p] + cnt
	}
	total := ix.fwdBase[m]
	ix.fwdNbrs = make([]int32, total)
	ix.fwdOff = make([]int32, m*(k+2))
	ix.edges = total - 1 // exclude the (t,t) loop

	var buckets [][]int32 // per-distance buckets for counting sort
	for p, v := range ix.verts {
		off := ix.fwdOff[p*(k+2) : (p+1)*(k+2)]
		base := ix.fwdBase[p]
		if v == q.T {
			ix.fwdNbrs[base] = ix.tPos
			for d := 1; d <= k+1; d++ {
				off[d] = 1 // t.t = 0, so every non-empty budget sees the loop
			}
			continue
		}
		if buckets == nil {
			buckets = make([][]int32, k+1)
		}
		for d := range buckets {
			buckets[d] = buckets[d][:0]
		}
		for _, w := range g.OutNeighbors(v) {
			if keep(p, v, w) {
				buckets[distT[w]] = append(buckets[distT[w]], pos[w])
			}
		}
		cursor := base
		for d := 0; d <= k; d++ {
			for _, w := range buckets[d] {
				ix.fwdNbrs[cursor] = w
				cursor++
			}
			off[d+1] = int32(cursor - base)
		}
	}
}

// buildReverse fills the mirrored in-neighbor lists sorted by w.s. The edge
// set is the forward one, so the lists are its transpose: a counting sort
// of the forward edges keyed by (target, source w.s). Sources are placed
// from the highest position down, each at the end of its bucket, so every
// bucket comes out in ascending position with the (t,t) loop, placed
// first, last in t's bucket.
func (ix *Index) buildReverse() {
	k := ix.k
	m := len(ix.verts)
	stride := k + 2
	ix.revOff = make([]int32, m*stride)
	// revOff[p*stride+d+1] counts p's sources with w.s = d, then accumulates
	// into the end of bucket d.
	for p := range m {
		d := ix.vs[p] + 1
		for _, x := range ix.fwdNbrs[ix.fwdBase[p]:ix.fwdBase[p+1]] {
			ix.revOff[int(x)*stride+int(d)]++
		}
	}
	ix.revBase = make([]int64, m+1)
	for p := range m {
		off := ix.revOff[p*stride : (p+1)*stride]
		for d := 1; d < stride; d++ {
			off[d] += off[d-1]
		}
		ix.revBase[p+1] = ix.revBase[p] + int64(off[stride-1])
	}
	ix.revNbrs = make([]int32, ix.revBase[m])
	place := func(src, dst int32) {
		off := ix.revOff[int(dst)*stride:]
		d := ix.vs[src] + 1
		off[d]--
		ix.revNbrs[ix.revBase[dst]+int64(off[d])] = src
	}
	place(ix.tPos, ix.tPos)
	for p := int32(m) - 1; p >= 0; p-- {
		if p == ix.tPos {
			continue
		}
		for _, x := range ix.fwdNbrs[ix.fwdBase[p]:ix.fwdBase[p+1]] {
			place(p, x)
		}
	}
	// Placing moved each bucket's end down to its start, one slot to the
	// right of where the prefix counts keep it: shift back.
	for p := range m {
		off := ix.revOff[p*stride : (p+1)*stride]
		copy(off[1:], off[2:])
		off[stride-1] = int32(ix.revBase[p+1] - ix.revBase[p])
	}
}

// collectStats gathers |C_i| and the Equation-5 neighbor sums.
func (ix *Index) collectStats() {
	k := ix.k
	ix.cSize = make([]int64, k+1)
	ix.sumIt = make([]uint64, k)
	for p := range ix.verts {
		lo, hi := int(ix.vs[p]), k-int(ix.vt[p])
		for i := lo; i <= hi; i++ {
			ix.cSize[i]++
			if i < k {
				ix.sumIt[i] += uint64(len(ix.outUpToPos(int32(p), k-i-1)))
			}
		}
	}
}

// Empty reports whether the index proves the query has no results.
func (ix *Index) Empty() bool { return ix.empty }

// K returns the query's hop constraint.
func (ix *Index) K() int { return ix.k }

// Query returns the query the index was built for.
func (ix *Index) Query() Query { return ix.q }

// Graph returns the underlying graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// NumIndexed returns |X|, the number of indexed vertices.
func (ix *Index) NumIndexed() int { return len(ix.verts) }

// Edges returns the number of index edges (excluding the padding loop),
// the "index size" metric of Figure 10.
func (ix *Index) Edges() int64 {
	if ix.empty {
		return 0
	}
	return ix.edges
}

// The accessors below address the index by vertex id, for tests and
// diagnostics; the searchers use positions. Each costs a binary search of
// verts, O(log |X|).

// position returns the position of v in X, or -1 if v is outside X.
func (ix *Index) position(v graph.VertexID) int32 {
	if p, ok := slices.BinarySearch(ix.verts, v); ok {
		return int32(p)
	}
	return -1
}

// ids translates a position list into a fresh list of vertex ids.
func (ix *Index) ids(ps []int32) []graph.VertexID {
	out := make([]graph.VertexID, len(ps))
	for i, p := range ps {
		out[i] = ix.verts[p]
	}
	return out
}

// InX reports whether v belongs to the partition X.
func (ix *Index) InX(v graph.VertexID) bool { return ix.position(v) >= 0 }

// DistS returns v.s, or -1 if v is outside X.
func (ix *Index) DistS(v graph.VertexID) int32 {
	if p := ix.position(v); p >= 0 {
		return ix.vs[p]
	}
	return -1
}

// DistT returns v.t, or -1 if v is outside X.
func (ix *Index) DistT(v graph.VertexID) int32 {
	if p := ix.position(v); p >= 0 {
		return ix.vt[p]
	}
	return -1
}

// OutUpTo implements It(v, b): the out-neighbors w of v in the index with
// w.t <= b, sorted ascending by w.t, as a fresh slice of vertex ids.
func (ix *Index) OutUpTo(v graph.VertexID, b int) []graph.VertexID {
	if p := ix.position(v); p >= 0 {
		return ix.ids(ix.outUpToPos(p, b))
	}
	return nil
}

// outUpToPos is It(verts[p], b) in positions. The slice aliases index
// storage. O(1).
func (ix *Index) outUpToPos(p int32, b int) []int32 {
	if b < 0 {
		return nil
	}
	if b > ix.k {
		b = ix.k
	}
	base := ix.fwdBase[p]
	end := ix.fwdOff[int(p)*(ix.k+2)+b+1]
	return ix.fwdNbrs[base : base+int64(end)]
}

// InUpTo implements Is(v, b): the in-neighbors w of v in the index with
// w.s <= b, sorted ascending by w.s, as a fresh slice of vertex ids.
func (ix *Index) InUpTo(v graph.VertexID, b int) []graph.VertexID {
	if p := ix.position(v); p >= 0 {
		return ix.ids(ix.inUpToPos(p, b))
	}
	return nil
}

// inUpToPos is Is(verts[p], b) in positions. The slice aliases index
// storage. O(1).
func (ix *Index) inUpToPos(p int32, b int) []int32 {
	if b < 0 {
		return nil
	}
	if b > ix.k {
		b = ix.k
	}
	base := ix.revBase[p]
	end := ix.revOff[int(p)*(ix.k+2)+b+1]
	return ix.revNbrs[base : base+int64(end)]
}

// LevelSize returns |C_i| = |I(i)|, the number of vertices that can appear
// at position i of a result (Proposition 4.3).
func (ix *Index) LevelSize(i int) int64 {
	if i < 0 || i > ix.k {
		return 0
	}
	return ix.cSize[i]
}

// ForEachLevel calls fn for every vertex of C_i.
func (ix *Index) ForEachLevel(i int, fn func(v graph.VertexID)) {
	if ix.empty || i < 0 || i > ix.k {
		return
	}
	i32 := int32(i)
	ki32 := int32(ix.k - i)
	for p, v := range ix.verts {
		if ix.vs[p] <= i32 && ix.vt[p] <= ki32 {
			fn(v)
		}
	}
}

// MemoryBytes estimates the resident size of the index (Table 7).
func (ix *Index) MemoryBytes() int64 {
	b := int64(len(ix.verts))*4 + int64(len(ix.vs))*4 + int64(len(ix.vt))*4
	b += int64(len(ix.fwdNbrs))*4 + int64(len(ix.fwdBase))*8 + int64(len(ix.fwdOff))*4
	b += int64(len(ix.revNbrs))*4 + int64(len(ix.revBase))*8 + int64(len(ix.revOff))*4
	b += int64(len(ix.cSize))*8 + int64(len(ix.sumIt))*8
	return b
}
