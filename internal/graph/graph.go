// Package graph provides the directed-graph substrate used throughout the
// repository: an immutable, persistent chunked compressed-sparse-row (CSR)
// representation with both out- and in-adjacency, construction from edge
// lists, text IO, and a small dynamic wrapper for insertion workloads.
//
// Vertices are dense int32 identifiers in [0, NumVertices). Parallel edges
// are collapsed and self-loops are dropped at construction time: the
// hop-constrained s-t path enumeration (HcPE) problem is defined on simple
// directed graphs, and neither parallel edges nor self-loops can appear in a
// simple path result.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// VertexID identifies a vertex. IDs are dense: a graph with n vertices uses
// exactly the IDs 0..n-1.
type VertexID = int32

// Edge is a directed edge From -> To.
type Edge struct {
	From VertexID
	To   VertexID
}

// chunkShift fixes the chunk width: adjacency is stored per 1<<chunkShift
// consecutive vertices. Narrow chunks make a publish cheap (WithEdges
// rebuilds only the chunks an edge lands in), wide ones keep the chunk
// tables small; DESIGN.md §7 has the measurements behind 1024.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// adjChunk is the adjacency of chunkSize consecutive vertices in one
// direction: vertex c<<chunkShift+i owns tgt[off[i]:off[i+1]], ascending.
// Offsets are relative to the chunk, which is what lets them be int32;
// entries past the graph's last vertex repeat the end. A chunk is never
// written after construction, so any number of graphs may share it.
type adjChunk struct {
	off *[chunkSize + 1]int32
	tgt []VertexID
}

// Graph is an immutable directed graph in chunked CSR form: one adjChunk
// per chunkSize vertices and direction. Both the out-adjacency and the
// in-adjacency are materialized because the PathEnum index performs
// breadth-first searches in both directions and builds a reverse index for
// the backward dynamic program of the join-order optimizer.
//
// The representation is persistent: WithEdges returns a graph that shares
// every chunk no new edge lands in with its parent, so a snapshot chain
// costs what its deltas touch and a replaced chunk is reclaimed by the
// garbage collector when the last graph holding it dies.
type Graph struct {
	numVertices int32
	numEdges    int64
	// ver identifies this graph for derived structures (frontiers,
	// oracles): a fresh lineage at epoch 0 for NewGraph and WithEdges
	// results, the owning Dynamic's (lineage, epoch) for snapshots.
	ver Version

	out, in []adjChunk
}

// ErrVertexRange reports an edge endpoint outside [0, n).
var ErrVertexRange = errors.New("graph: vertex id out of range")

// errChunkTooLarge reports more than MaxInt32 adjacency entries in one
// chunk, which its relative int32 offsets cannot address.
var errChunkTooLarge = errors.New("graph: chunk exceeds 2^31-1 edges")

func checkRange(n int32, e Edge) error {
	if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
		return fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrVertexRange, e.From, e.To, n)
	}
	return nil
}

// compareEdges orders range-checked edges by (From, To): ids are
// non-negative, so the pair compares as one 64-bit number.
func compareEdges(a, b Edge) int {
	return cmp.Compare(uint64(a.From)<<32|uint64(a.To), uint64(b.From)<<32|uint64(b.To))
}

// NewGraph builds a Graph with n vertices from the given edge list.
// Self-loops are dropped and duplicate edges collapsed. Endpoints must lie
// in [0, n).
func NewGraph(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds limit", n)
	}
	cleaned := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if err := checkRange(int32(n), e); err != nil {
			return nil, err
		}
		if e.From != e.To {
			cleaned = append(cleaned, e)
		}
	}
	slices.SortFunc(cleaned, compareEdges)
	uniq := slices.Compact(cleaned)

	g := &Graph{numVertices: int32(n), numEdges: int64(len(uniq)), ver: newLineage()}
	var err error
	if g.out, err = buildChunks(n, uniq, false); err != nil {
		return nil, err
	}
	if g.in, err = buildChunks(n, uniq, true); err != nil {
		return nil, err
	}
	return g, nil
}

// buildChunks lays out one direction of the adjacency of a sorted,
// duplicate-free edge list by counting sort: the out-lists when flip is
// false — the To column as it stands — and the in-lists (each edge read as
// To -> From) when it is true, where the From-major input order fills
// every list in ascending order. All chunks are carved out of one offset array and one
// target array, each target region clipped so that nothing can append into
// its neighbor's; the two arrays die when their last chunk is replaced.
func buildChunks(n int, edges []Edge, flip bool) ([]adjChunk, error) {
	chunks := make([]adjChunk, (n+chunkMask)>>chunkShift)
	offs := make([][chunkSize + 1]int32, len(chunks))
	for _, e := range edges {
		v := e.From
		if flip {
			v = e.To
		}
		offs[v>>chunkShift][v&chunkMask+1]++
	}
	tgt := make([]VertexID, len(edges))
	var next []int // in-lists only: where in tgt each vertex's next neighbor goes
	if flip {
		next = make([]int, n)
	}
	base := 0
	for c := range chunks {
		off := &offs[c]
		var sum int64
		for i := 1; i <= chunkSize; i++ {
			if v := c<<chunkShift + i - 1; v < len(next) {
				next[v] = base + int(sum)
			}
			sum += int64(off[i])
			off[i] = int32(sum)
		}
		if sum > math.MaxInt32 {
			return nil, errChunkTooLarge
		}
		end := base + int(sum)
		chunks[c] = adjChunk{off: off, tgt: tgt[base:end:end]}
		base = end
	}
	if !flip {
		for i, e := range edges { // sorted by From: the out-lists in order
			tgt[i] = e.To
		}
		return chunks, nil
	}
	for _, e := range edges {
		tgt[next[e.To]] = e.From
		next[e.To]++
	}
	return chunks, nil
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return int(g.numVertices) }

// Epoch returns the mutation epoch of the graph's lineage: 0 for a freshly
// built graph, the owning Dynamic's insertion count for a snapshot.
func (g *Graph) Epoch() uint64 { return g.ver.epoch }

// Version returns the graph's (lineage, epoch) identity. Derived
// structures (core.Frontier, the landmark oracle) capture it at build time
// and validate it before every use, so a labeling from an older epoch can
// never silently serve a mutated graph.
func (g *Graph) Version() Version { return g.ver }

// NumEdges returns the number of distinct directed edges.
func (g *Graph) NumEdges() int64 { return g.numEdges }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	c, i := &g.out[v>>chunkShift], v&chunkMask
	return int(c.off[i+1] - c.off[i])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	c, i := &g.in[v>>chunkShift], v&chunkMask
	return int(c.off[i+1] - c.off[i])
}

// Degree returns out-degree + in-degree of v, the degree notion used by the
// paper's workload generator to pick high-degree endpoints.
func (g *Graph) Degree(v VertexID) int { return g.OutDegree(v) + g.InDegree(v) }

// OutNeighbors returns the sorted out-neighbors of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	c, i := &g.out[v>>chunkShift], v&chunkMask
	return c.tgt[c.off[i]:c.off[i+1]]
}

// InNeighbors returns the sorted in-neighbors of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	c, i := &g.in[v>>chunkShift], v&chunkMask
	return c.tgt[c.off[i]:c.off[i+1]]
}

// HasEdge reports whether the directed edge (from, to) exists.
func (g *Graph) HasEdge(from, to VertexID) bool {
	_, found := slices.BinarySearch(g.OutNeighbors(from), to)
	return found
}

// Edges returns a fresh slice of all edges in (From, To) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for v := int32(0); v < g.numVertices; v++ {
		for _, w := range g.OutNeighbors(v) {
			out = append(out, Edge{From: v, To: w})
		}
	}
	return out
}

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.numVertices == 0 {
		return 0
	}
	return float64(g.numEdges) / float64(g.numVertices)
}

// Reverse returns a new graph with every edge direction flipped.
func (g *Graph) Reverse() *Graph {
	edges := make([]Edge, 0, g.numEdges)
	for v := int32(0); v < g.numVertices; v++ {
		for _, w := range g.OutNeighbors(v) {
			edges = append(edges, Edge{From: w, To: v})
		}
	}
	r, err := NewGraph(int(g.numVertices), edges)
	if err != nil {
		// Cannot happen: endpoints come from a valid graph.
		panic(err)
	}
	return r
}

// WithEdges returns a new graph containing all edges of g plus the given
// extra edges, under NewGraph's rules: endpoints must lie in [0, n),
// self-loops are dropped, duplicates (of g's edges or of each other)
// collapse. The result starts a fresh lineage and shares with g every
// chunk no extra edge lands in; a chunk that x extras land in is rebuilt
// once, by a sorted merge, so the cost is the extras plus the chunks they
// touch plus the two chunk tables — independent of |E|. g is not modified.
func (g *Graph) WithEdges(extra []Edge) (*Graph, error) {
	add := make([]Edge, 0, len(extra))
	for _, e := range extra {
		if err := checkRange(g.numVertices, e); err != nil {
			return nil, err
		}
		if e.From != e.To && !g.HasEdge(e.From, e.To) {
			add = append(add, e)
		}
	}
	slices.SortFunc(add, compareEdges)
	add = slices.Compact(add)

	ng := &Graph{numVertices: g.numVertices, numEdges: g.numEdges + int64(len(add)), ver: newLineage()}
	var err error
	if ng.out, err = mergeChunks(g.out, add); err != nil {
		return nil, err
	}
	// The in-lists take the same edges read backwards.
	for i, e := range add {
		add[i] = Edge{From: e.To, To: e.From}
	}
	slices.SortFunc(add, compareEdges)
	if ng.in, err = mergeChunks(g.in, add); err != nil {
		return nil, err
	}
	return ng, nil
}

// mergeChunks returns a copy of the chunk table with every chunk that owns
// the From of an edge in add replaced by one that also lists its To. add
// is sorted by (From, To) and disjoint from the lists it joins.
func mergeChunks(chunks []adjChunk, add []Edge) ([]adjChunk, error) {
	chunks = slices.Clone(chunks)
	for len(add) > 0 {
		c := add[0].From >> chunkShift
		n := 1
		for n < len(add) && add[n].From>>chunkShift == c {
			n++
		}
		if len(chunks[c].tgt)+n > math.MaxInt32 {
			return nil, errChunkTooLarge
		}
		chunks[c] = chunks[c].merge(add[:n])
		add = add[n:]
	}
	return chunks, nil
}

// merge returns a new chunk listing c's edges and add's, which all start
// in c and arrive sorted by (From, To). One pass over the insertions: the
// run of old targets between two consecutive insertion points moves with a
// single copy, and a vertex's offset is its old one plus the edges inserted
// before it — the cost is the chunk's bytes, not an append per vertex.
func (c adjChunk) merge(add []Edge) adjChunk {
	off := new([chunkSize + 1]int32)
	tgt := make([]VertexID, len(c.tgt)+len(add))
	src := int32(0)  // old targets before src are already in tgt
	v := VertexID(0) // vertices before v already have their offset
	for j, e := range add {
		i := e.From & chunkMask
		for ; v <= i; v++ {
			off[v] = c.off[v] + int32(j)
		}
		lo := max(src, c.off[i])
		k, _ := slices.BinarySearch(c.tgt[lo:c.off[i+1]], e.To)
		at := lo + int32(k)
		copy(tgt[int(src)+j:], c.tgt[src:at])
		tgt[int(at)+j] = e.To
		src = at
	}
	copy(tgt[int(src)+len(add):], c.tgt[src:])
	for ; v <= chunkSize; v++ {
		off[v] = c.off[v] + int32(len(add))
	}
	return adjChunk{off: off, tgt: tgt}
}

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d davg=%.1f}", g.numVertices, g.numEdges, g.AvgDegree())
}
