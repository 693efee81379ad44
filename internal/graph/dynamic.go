package graph

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Dynamic is a small insertion-only dynamic graph used by streaming
// workloads (e-commerce fraud detection, Figure 8): the latest snapshot plus
// the edges inserted since. Because the PathEnum index is rebuilt per query,
// queries on the next snapshot see all insertions — no global index
// maintenance is required (§7.2 "Performance on Dynamic Graphs") — and
// because snapshots are chained with Graph.WithEdges, publishing one costs
// what its pending edges touch, whatever the size of the graph or the
// number of edges inserted before.
//
// Every successful Insert bumps the graph's epoch, and Snapshot stamps the
// materialized graph with the Dynamic's (lineage, epoch) identity. Derived
// structures built on one snapshot — distance frontiers, the landmark
// oracle — are therefore rejected with graph.ErrStaleEpoch on any snapshot
// taken after further insertions, instead of silently pruning with stale
// labels. A Dynamic starts its own lineage: artifacts built on the base
// graph itself are not valid for its snapshots (and vice versa), which
// keeps two Dynamics wrapping one base from colliding on epoch numbers.
// They never see each other's edges either: snapshots share unchanged
// chunks with the base, and nothing shared is ever written.
//
// A Dynamic is not safe for concurrent use; the intended topology is one
// writer that inserts, snapshots, and hands the immutable snapshots to
// concurrent readers (e.g. Engine.UpdateGraph).
type Dynamic struct {
	cur     *Graph            // the latest snapshot; the base, restamped, at first
	pending map[Edge]struct{} // inserted since cur, none of them in cur
	ver     Version
}

// NewDynamic wraps a base graph for incremental insertion.
func NewDynamic(base *Graph) *Dynamic {
	d := &Dynamic{pending: make(map[Edge]struct{}), ver: newLineage()}
	cur := *base // the chunk tables are shared, only the stamp differs
	cur.ver = d.ver
	d.cur = &cur
	return d
}

// Epoch returns the number of successful insertions since construction.
func (d *Dynamic) Epoch() uint64 { return d.ver.epoch }

// Version returns the dynamic graph's current (lineage, epoch) identity;
// snapshots carry the version of the moment they were taken.
func (d *Dynamic) Version() Version { return d.ver }

// Insert adds the directed edge (from, to). Duplicate edges and self-loops
// are ignored, matching NewGraph semantics. It reports whether the edge was
// actually added.
func (d *Dynamic) Insert(from, to VertexID) (bool, error) {
	e := Edge{From: from, To: to}
	if err := checkRange(d.cur.numVertices, e); err != nil {
		return false, err
	}
	if from == to || d.HasEdge(from, to) {
		return false, nil
	}
	// Below this total no chunk can outgrow its int32 offsets, so Snapshot
	// cannot fail.
	if d.NumEdges() >= math.MaxInt32 {
		return false, fmt.Errorf("%w: a Dynamic holds at most 2^31-1 edges", errChunkTooLarge)
	}
	d.pending[e] = struct{}{}
	d.ver.epoch++
	return true, nil
}

// HasEdge reports whether (from, to) is in the graph, published or pending.
func (d *Dynamic) HasEdge(from, to VertexID) bool {
	_, pending := d.pending[Edge{From: from, To: to}]
	return pending || d.cur.HasEdge(from, to)
}

// NumVertices returns the number of vertices.
func (d *Dynamic) NumVertices() int { return d.cur.NumVertices() }

// NumEdges returns the total number of edges including insertions.
func (d *Dynamic) NumEdges() int64 { return d.cur.NumEdges() + int64(len(d.pending)) }

// OutNeighbors returns the sorted out-neighbors of v, publishing pending
// insertions first (see Snapshot); the result aliases snapshot storage and
// must not be modified.
func (d *Dynamic) OutNeighbors(v VertexID) []VertexID { return d.Snapshot().OutNeighbors(v) }

// InNeighbors returns the sorted in-neighbors of v, analogous to
// OutNeighbors.
func (d *Dynamic) InNeighbors(v VertexID) []VertexID { return d.Snapshot().InNeighbors(v) }

// Snapshot returns the current state as an immutable Graph stamped with the
// Dynamic's current (lineage, epoch) identity, so two snapshots of the same
// epoch are interchangeable for cached frontiers and oracles while any
// later-epoch snapshot invalidates them. With nothing inserted since the
// last call it returns the same *Graph again. Otherwise it chains one
// Graph.WithEdges step onto the previous snapshot: the cost is the pending
// edges plus the chunks they land in (each rebuilt once, however many land
// there), not |E|, and earlier snapshots stay valid and unchanged.
func (d *Dynamic) Snapshot() *Graph {
	if len(d.pending) == 0 {
		return d.cur
	}
	g, err := d.cur.WithEdges(slices.Collect(maps.Keys(d.pending)))
	if err != nil {
		// Cannot happen: Insert validated the endpoints and the edge total.
		panic(err)
	}
	g.ver = d.ver
	d.cur = g
	clear(d.pending)
	return g
}
