package core

import (
	"math"

	"pathenum/internal/graph"
)

// distUnreachable marks vertices a search never assigned.
const distUnreachable int32 = -1

// EdgePredicate restricts a query to edges it returns true for (the
// predicate constraint of Appendix E). A nil predicate admits every edge.
type EdgePredicate func(from, to graph.VertexID) bool

// bfsSide is one direction of the distance labeling that seeds index
// construction (line 1 of Algorithm 3). dist is distUnreachable everywhere
// except at the vertices of vis, so clearing a side costs O(len(vis)), not
// O(|V|).
type bfsSide struct {
	dist []int32          // label per vertex; distUnreachable if unassigned
	vis  []graph.VertexID // labeled vertices in BFS order: queue and reset list in one
	lo   int              // vis[lo:] is the current frontier, every member at depth
	// depth is the level the frontier sits at; cost is the sum of the
	// frontier's degrees in the search direction, the price of expanding it.
	depth int32
	cost  int64
}

// bfsScratch holds the reusable buffers of both sides. Reusing them across
// queries keeps per-query allocation at O(1) beyond the index itself, and
// per-query work proportional to what the searches touch.
type bfsScratch struct {
	fwd, bwd bfsSide
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{fwd: bfsSide{dist: minusOnes(n)}, bwd: bfsSide{dist: minusOnes(n)}}
}

// minusOnes returns n entries of -1, the "unassigned" value of the distance
// arrays and the position map: the one O(|V|) fill their owner ever pays.
func minusOnes(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// reset clears the labels of the previous run.
func (sd *bfsSide) reset() {
	for _, v := range sd.vis {
		sd.dist[v] = distUnreachable
	}
	sd.vis, sd.lo, sd.depth, sd.cost = sd.vis[:0], 0, 0, 0
}

// start seeds a reset side at origin, whose degree is the frontier cost.
func (sd *bfsSide) start(origin graph.VertexID, degree int) {
	sd.dist[origin] = 0
	sd.vis = append(sd.vis, origin)
	sd.cost = int64(degree)
}

// labeling is the outcome of one bfsScratch.label call: the two distance
// arrays the index is assembled from (scratch-owned or a Frontier's), a
// list that contains every vertex of the partition X (nil: no list, any
// vertex may be in X), and the number of vertices the per-query searches
// labeled.
type labeling struct {
	distS, distT []int32
	cand         []graph.VertexID
	visited      int
}

// A candidate list saves the index build a pass over all |V| labels, and is
// worth only what that pass costs — some 1-2 ns per vertex, sequential.
// sweepShare is the list length, as a share of |V|, from which sorting it
// into the ascending order the index wants costs more than the pass (about
// 60 ns per sorted vertex, halved to stay on the list's side of the
// break-even). walkShare is the same for a walk whose only product is the
// list: the edges it may scan, each a random access or two.
const (
	sweepShare = 16
	walkShare  = 4
)

// label computes the distance labels of query q, touching only what the
// hop budget can use from both ends (the Pre-BFS idea of PEFP).
//
// Exact labels are v.s = S(s,v | G-{t}) and v.t = S(v,t | G-{s}): the
// forward search never expands t, the backward search never expands s. The
// index needs them only on X = {v : v.s + v.t <= k}, so the searches
//
//  1. meet in the middle: expand one full level at a time on whichever side
//     has the cheaper frontier until the depths a and b reach a+b = k-1.
//     Any v in X then has v.s <= a or v.t <= b, i.e. an exact label from at
//     least one side. A non-nil oracle prunes here: a vertex whose depth
//     plus lower bound to the far endpoint exceeds k is outside X and is
//     not expanded (§7.5);
//  2. finish restricted: continue each side to depth k, labeling w at depth
//     d only if the other side labeled it with d + other[w] <= k.
//
// Every vertex on a shortest s->v (or v->t) path of an X member is itself
// in X, and so carries an exact label from the other side by the time the
// restricted search reaches it: restricted labels are exact on X. Elsewhere
// they are the length of some real path, so >= the exact label, which keeps
// such a vertex outside X and off every index edge. The index assembled
// from them is bit-identical to the one two full k-ball searches produce.
//
// A non-nil fwd or bwd Frontier is that side already complete: the other
// side runs restricted from depth 0 against the frontier's labels, by the
// same argument over the frontier's superset partition. With both given no
// label is missing, only the candidate list: the forward side is walked,
// guided by bwd, to get one without a pass over all vertices (its exact
// labels then replace fwd's relaxed ones) — but only while the walk is the
// cheaper of the two (walkShare). Past that it is abandoned and the two
// frontiers are handed over as they are.
//
// A non-nil pred restricts every search to edges satisfying it, which is
// how predicate constraints integrate without materializing the filtered
// subgraph (Appendix E).
func (b *bfsScratch) label(g *graph.Graph, q Query, pred EdgePredicate, oracle DistanceOracle, fwd, bwd *Frontier) labeling {
	f, r := &b.fwd, &b.bwd
	f.reset()
	r.reset()
	switch {
	case bwd != nil:
		f.start(q.S, g.OutDegree(q.S))
		maxEdges := int64(math.MaxInt64) // fwd's labels are missing: the walk must complete
		if fwd != nil {
			maxEdges = int64(len(f.dist) / walkShare)
		}
		if !f.finish(g, q, true, pred, bwd.dist, maxEdges) {
			return labeling{distS: fwd.dist, distT: bwd.dist, visited: len(f.vis)}
		}
		return labeling{distS: f.dist, distT: bwd.dist, cand: f.vis, visited: len(f.vis)}
	case fwd != nil:
		r.start(q.T, g.InDegree(q.T))
		r.finish(g, q, false, pred, fwd.dist, math.MaxInt64)
		return labeling{distS: fwd.dist, distT: r.dist, cand: r.vis, visited: len(r.vis)}
	}
	f.start(q.S, g.OutDegree(q.S))
	r.start(q.T, g.InDegree(q.T))
	for k := int32(q.K); f.depth+r.depth < k-1; {
		if f.cost <= r.cost {
			f.expand(g, q, true, pred, oracle, nil)
		} else {
			r.expand(g, q, false, pred, oracle, nil)
		}
	}
	f.finish(g, q, true, pred, r.dist, math.MaxInt64)
	r.finish(g, q, false, pred, f.dist, math.MaxInt64)
	cand := f.vis
	if len(r.vis) < len(cand) {
		cand = r.vis
	}
	return labeling{distS: f.dist, distT: r.dist, cand: cand, visited: len(f.vis) + len(r.vis)}
}

// finish runs the restricted search from the side's current depth to k. It
// gives up before a level, reporting false, when expanding it would take
// the edges scanned since the call past maxEdges.
func (sd *bfsSide) finish(g *graph.Graph, q Query, forward bool, pred EdgePredicate, other []int32, maxEdges int64) bool {
	var scanned int64
	for k := int32(q.K); sd.depth < k && sd.lo < len(sd.vis); {
		if scanned += sd.cost; scanned > maxEdges {
			return false
		}
		sd.expand(g, q, forward, pred, nil, other)
	}
	return true
}

// expand labels the next level of one side: forward along out-edges from
// q.S without expanding q.T, or backward along in-edges from q.T without
// expanding q.S. With other == nil the level is complete; otherwise w is
// labeled only when other[w] >= 0 and the two labels fit the budget. An
// exhausted side expands to nothing, which still advances its depth.
func (sd *bfsSide) expand(g *graph.Graph, q Query, forward bool, pred EdgePredicate, oracle DistanceOracle, other []int32) {
	k := int32(q.K)
	next := sd.depth + 1
	far := q.T // labeled when reached, never expanded
	if !forward {
		far = q.S
	}
	hi := len(sd.vis)
	sd.cost = 0
	for _, v := range sd.vis[sd.lo:hi] {
		if v == far {
			continue
		}
		if oracle != nil {
			from, to := v, far
			if !forward {
				from, to = far, v
			}
			if lb := oracle.LowerBound(from, to); lb < 0 || sd.depth+lb > k {
				continue // v cannot be in X; skip expansion, keep its label
			}
		}
		nbrs := g.OutNeighbors(v)
		if !forward {
			nbrs = g.InNeighbors(v)
		}
		for _, w := range nbrs {
			// Restricted, most neighbors fail on the other side's label:
			// test it first and spare the second random access.
			if other != nil {
				if ow := other[w]; ow < 0 || next+ow > k {
					continue
				}
			}
			if sd.dist[w] != distUnreachable {
				continue
			}
			if pred != nil {
				from, to := v, w
				if !forward {
					from, to = w, v
				}
				if !pred(from, to) {
					continue
				}
			}
			sd.dist[w] = next
			sd.vis = append(sd.vis, w)
			if w != far {
				if forward {
					sd.cost += int64(g.OutDegree(w))
				} else {
					sd.cost += int64(g.InDegree(w))
				}
			}
		}
	}
	sd.lo, sd.depth = hi, next
}
