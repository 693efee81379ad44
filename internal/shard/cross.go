// The cross-shard enumerator: the partition boundary treated as the join
// cut. For s owned by shard A and t by shard B, every simple path from s
// to t decomposes at its FIRST cut edge — the prefix before it uses only
// A-internal edges. The class this enumerator covers exactly is the
// single-crossing shape A⁺B⁺ (a prefix inside G_A, one cut edge A→B, a
// suffix inside G_B): prefixes enumerate in G_A against the boundary
// vertices and materialize as the build side, suffixes enumerate lazily
// in G_B per boundary vertex as the probe side, and each joined path is
// emitted before the probe advances — the same build/bucket/lazy-probe
// shape as core's tuple-at-a-time join (EnumerateJoinSide), indexed by
// boundary vertex instead of hop position. Because shard vertex sets are
// disjoint, a joined A⁺B⁺ path is simple by construction: no seam
// validation pass is needed. Paths of any other owner shape (a third
// shard, re-entering A, multiple crossings) are the remainder class the
// engine routes through filtered full-image execution.
//
// Per-query state follows the query, not the partition: a run touches the
// vertices its hop budget reaches and the cut edges out of the prefixes it
// builds. Its |V| arrays live in a pooled crossJoin, hold their unset
// value between runs and are restored from the run's touched lists (the
// scheme of core's bfsScratch); the build side is one flat vertex slice.
package shard

import (
	"context"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// seamQuery is what one boundary join runs on: the captured images, the
// cut list A→B, the query and its delivery and stop conditions.
type seamQuery struct {
	gA, gB *graph.Graph
	// full is the full image, whose out-adjacency of an A vertex holds its
	// cut edges: those with owners[v] == b are the A→B ones.
	full   *graph.Graph
	owners []int32
	b      int32
	cuts   []graph.Edge // A→B cut edges: their sources seed the crossing bound
	s, t   graph.VertexID
	k      int
	pred   core.EdgePredicate
	// emit receives each joined path s..t in a reused buffer (copy to
	// retain) and returns false to stop the run.
	emit func(path []graph.VertexID) bool

	ctx      context.Context
	deadline time.Time // zero = none
}

// crossJoin is one boundary-join execution together with the scratch it
// runs on. It is pooled per Engine and not safe for concurrent use.
type crossJoin struct {
	seamQuery

	// Results, filled by run.
	counters  core.Counters
	stats     core.JoinStats
	labelTime time.Duration // distB and the crossing bound
	visited   int           // vertices the two labelings touched
	stopped   bool          // emit returned false, ctx done, or deadline hit
	tick      uint64

	// Scratch over the global id space. Between runs distB, lb and slot are
	// -1 and onPath is false everywhere.
	distB  []int32            // v→t hops inside G_B
	bVis   []graph.VertexID   // vertices distB labeled, in BFS order
	lb     []int32            // x→t hops through one crossing
	lbLvl  [][]graph.VertexID // lb's bucket queue; every vertex lb labeled is in one
	slot   []int32            // boundary vertex → its bucket
	onPath []bool             // the prefix being built, then the suffix being probed

	// The build side, flat: tuple i is the prefix s..u plus its boundary
	// vertex v, verts[off[i]:off[i+1]]; next chains the tuples of a bucket.
	// Bucket j collects the tuples ending at bound[j] (first-appearance
	// order), starting at head[j]; minHops[j] is its shortest prefix.
	verts   []graph.VertexID
	off     []int32
	next    []int32
	bound   []graph.VertexID
	head    []int32
	minHops []int32

	path, suffix, out []graph.VertexID
}

func newCrossJoin(n int) *crossJoin {
	return &crossJoin{
		distB:  minusOnes(n),
		lb:     minusOnes(n),
		slot:   minusOnes(n),
		onPath: make([]bool, n),
	}
}

func minusOnes(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// shouldStop amortizes the context/deadline check over expansion events,
// mirroring the core enumerators' event-counter polling.
func (cj *crossJoin) shouldStop() bool {
	if cj.stopped {
		return true
	}
	cj.tick++
	if cj.tick&255 == 0 {
		if cj.ctx != nil && cj.ctx.Err() != nil {
			cj.stopped = true
		} else if !cj.deadline.IsZero() && time.Now().After(cj.deadline) {
			cj.stopped = true
		}
	}
	return cj.stopped
}

// run executes the boundary join for q. Sequential and goroutine-free: the
// consumer's goroutine drives both sides, so an abandoned run leaks
// nothing by construction. The results stay readable until the next run;
// the scratch is clean again when run returns, however the run ended.
func (cj *crossJoin) run(q seamQuery) {
	cj.seamQuery = q
	cj.counters, cj.stats, cj.labelTime, cj.visited = core.Counters{}, core.JoinStats{}, 0, 0
	cj.stopped, cj.tick = false, 0
	defer cj.reset()
	if cj.k < 1 || len(cj.cuts) == 0 {
		return
	}
	start := time.Now()
	cj.label()
	cj.labelTime = time.Since(start)
	if d := cj.lb[cj.s]; d < 0 || int(d) > cj.k {
		return
	}

	// Build side: DFS from s over G_A, recording one tuple per admissible
	// (prefix, cut edge) pair, bucketed by boundary vertex in first-
	// appearance order — the probe visits boundary vertices in the order
	// the build discovered them, so early tuples join early.
	buildStart := time.Now()
	cj.off = append(cj.off, 0)
	cj.path = append(cj.path, cj.s)
	cj.onPath[cj.s] = true
	cj.build(cj.s, 0)
	cj.onPath[cj.s] = false
	tuples := int64(len(cj.off) - 1)
	cj.stats.BuildLeft = true
	cj.stats.BuildTuples = tuples
	cj.stats.LeftTuples = tuples
	cj.stats.PartialBytes = int64(len(cj.verts)) * 4
	cj.stats.BuildTime = time.Since(buildStart)
	if cj.stopped || tuples == 0 {
		return
	}

	// Probe side: per boundary vertex, a lazy DFS in G_B toward t pruned
	// by distB; every completed suffix immediately joins its bucket's
	// feasible tuples and each joined path is emitted before the probe
	// advances — first-path latency is one prefix plus one suffix, not a
	// materialized half side.
	probeStart := time.Now()
	for j, v := range cj.bound {
		cj.suffix = append(cj.suffix[:0], v)
		cj.onPath[v] = true
		cj.probe(int32(j), v, 0, cj.k-int(cj.minHops[j]))
		cj.onPath[v] = false
		if cj.stopped {
			break
		}
	}
	cj.stats.RightTuples = cj.stats.ProbeWalks
	cj.stats.ProbeTime = time.Since(probeStart)
}

// label computes the two labelings that prune the join. distB[v] is the
// minimum hops v→t inside G_B. lb[x] is the minimum hops x→t through a
// single crossing: a multi-source backward bucket BFS over G_A from the
// sources of the admissible cut edges, each seeded at its cheapest
// completion (the cut edge plus distB of its target), levels settling in
// ascending order so lb is exact. It prunes the prefix DFS exactly like
// the per-query index's backward labeling.
//
// Both stop a level short of the budget, where the outermost level — the
// widest — is of use at one place only. A suffix of k-1 hops needs a
// one-hop prefix, so distB = k-1 matters only at the targets of s's cut
// edges; a crossing bound of k needs an empty prefix, so lb = k matters
// only at s. Those few labels are read off their neighbours instead.
func (cj *crossJoin) label() {
	k := cj.k
	cj.distB[cj.t] = 0
	cj.bVis = append(cj.bVis, cj.t)
	for lo, d := 0, int32(1); lo < len(cj.bVis) && int(d) <= k-2; d++ {
		hi := len(cj.bVis)
		for _, u := range cj.bVis[lo:hi] {
			nbrs := cj.gB.InNeighbors(u)
			cj.counters.EdgesAccessed += uint64(len(nbrs))
			for _, w := range nbrs {
				if cj.distB[w] >= 0 || cj.pred != nil && !cj.pred(w, u) {
					continue
				}
				cj.distB[w] = d
				cj.bVis = append(cj.bVis, w)
			}
		}
		lo = hi
	}
	if k >= 2 {
		// An unlabeled v with a labeled out-neighbour w has distB[w] = k-2.
		for _, v := range cj.full.OutNeighbors(cj.s) {
			if cj.owners[v] != cj.b || cj.distB[v] >= 0 {
				continue
			}
			for _, w := range cj.gB.OutNeighbors(v) {
				if cj.distB[w] >= 0 && (cj.pred == nil || cj.pred(v, w)) {
					cj.distB[v] = int32(k - 1)
					cj.bVis = append(cj.bVis, v)
					break
				}
			}
		}
	}
	cj.visited = len(cj.bVis)

	if len(cj.lbLvl) < k+1 {
		cj.lbLvl = make([][]graph.VertexID, k+1)
	}
	cj.counters.EdgesAccessed += uint64(len(cj.cuts))
	for _, e := range cj.cuts {
		d := cj.distB[e.To]
		if d < 0 || cj.pred != nil && !cj.pred(e.From, e.To) {
			continue
		}
		cj.pushLB(e.From, 1+int(d))
	}
	for c := 0; c < k-1; c++ {
		for i := 0; i < len(cj.lbLvl[c]); i++ { // pushLB may grow later levels only
			u := cj.lbLvl[c][i]
			if int(cj.lb[u]) != c {
				continue // settled at a smaller level
			}
			nbrs := cj.gA.InNeighbors(u)
			cj.counters.EdgesAccessed += uint64(len(nbrs))
			for _, w := range nbrs {
				if cj.pred == nil || cj.pred(w, u) {
					cj.pushLB(w, c+1)
				}
			}
		}
	}
	for _, w := range cj.gA.OutNeighbors(cj.s) {
		if l := cj.lb[w]; l >= 0 && (cj.pred == nil || cj.pred(cj.s, w)) {
			cj.pushLB(cj.s, int(l)+1)
		}
	}
}

// pushLB offers cost c for u to the crossing bound's bucket queue.
func (cj *crossJoin) pushLB(u graph.VertexID, c int) {
	switch {
	case c > cj.k || c == cj.k && u != cj.s:
		return
	case cj.lb[u] < 0:
		cj.visited++
	case int(cj.lb[u]) <= c:
		return
	}
	cj.lb[u] = int32(c)
	cj.lbLvl[c] = append(cj.lbLvl[c], u)
}

// build extends the prefix ending at u, depth edges long: first the
// tuples of u's admissible cut edges — a target v joins some suffix iff
// depth + 1 + distB[v] <= k — then the A-internal steps the crossing bound
// keeps within budget.
func (cj *crossJoin) build(u graph.VertexID, depth int) {
	if cj.shouldStop() {
		return
	}
	out := cj.full.OutNeighbors(u)
	cj.counters.EdgesAccessed += uint64(len(out))
	for _, v := range out {
		if cj.owners[v] != cj.b {
			continue
		}
		if d := cj.distB[v]; d < 0 || depth+1+int(d) > cj.k {
			continue
		}
		if cj.pred != nil && !cj.pred(u, v) {
			continue
		}
		cj.addTuple(v, depth+1)
	}
	nbrs := cj.gA.OutNeighbors(u)
	cj.counters.EdgesAccessed += uint64(len(nbrs))
	for _, w := range nbrs {
		if cj.onPath[w] || cj.lb[w] < 0 || depth+1+int(cj.lb[w]) > cj.k {
			continue
		}
		if cj.pred != nil && !cj.pred(u, w) {
			continue
		}
		cj.onPath[w] = true
		cj.path = append(cj.path, w)
		cj.build(w, depth+1)
		cj.path = cj.path[:len(cj.path)-1]
		cj.onPath[w] = false
	}
}

// addTuple records the current prefix plus boundary vertex v, hops edges
// long, in v's bucket.
func (cj *crossJoin) addTuple(v graph.VertexID, hops int) {
	j := cj.slot[v]
	if j < 0 {
		j = int32(len(cj.bound))
		cj.slot[v] = j
		cj.bound = append(cj.bound, v)
		cj.head = append(cj.head, -1)
		cj.minHops = append(cj.minHops, int32(hops))
	}
	cj.minHops[j] = min(cj.minHops[j], int32(hops))
	cj.verts = append(append(cj.verts, cj.path...), v)
	cj.next = append(cj.next, cj.head[j])
	cj.head[j] = int32(len(cj.off) - 1)
	cj.off = append(cj.off, int32(len(cj.verts)))
}

// probe extends the suffix ending at w, r edges long, inside G_B; budget
// is the most suffix edges any tuple of bucket j affords.
func (cj *crossJoin) probe(j int32, w graph.VertexID, r, budget int) {
	if cj.shouldStop() {
		return
	}
	if w == cj.t {
		// A simple path visits t only at its end, so the walk never
		// expands past t: emit the joins and return.
		cj.stats.ProbeWalks++
		for i := cj.head[j]; i >= 0; i = cj.next[i] {
			prefix := cj.verts[cj.off[i]:cj.off[i+1]]
			if len(prefix)-1+r > cj.k {
				continue
			}
			cj.out = append(append(cj.out[:0], prefix...), cj.suffix[1:]...)
			cj.counters.Results++
			if !cj.emit(cj.out) {
				cj.stopped = true
				return
			}
		}
		return
	}
	nbrs := cj.gB.OutNeighbors(w)
	cj.counters.EdgesAccessed += uint64(len(nbrs))
	for _, w2 := range nbrs {
		if cj.onPath[w2] {
			continue
		}
		if d := cj.distB[w2]; d < 0 || r+1+int(d) > budget {
			continue
		}
		if cj.pred != nil && !cj.pred(w, w2) {
			continue
		}
		cj.onPath[w2] = true
		cj.suffix = append(cj.suffix, w2)
		cj.probe(j, w2, r+1, budget)
		cj.suffix = cj.suffix[:len(cj.suffix)-1]
		cj.onPath[w2] = false
		if cj.stopped {
			return
		}
	}
}

// reset restores the scratch from the run's touched lists and drops the
// run's references, so the pool pins no graph and no callback.
func (cj *crossJoin) reset() {
	// The walks clear onPath as they unwind; only a panic in emit can
	// leave the current prefix and suffix set.
	for _, v := range cj.path {
		cj.onPath[v] = false
	}
	for _, v := range cj.suffix {
		cj.onPath[v] = false
	}
	for _, v := range cj.bVis {
		cj.distB[v] = -1
	}
	for c, lvl := range cj.lbLvl {
		for _, v := range lvl {
			cj.lb[v] = -1
		}
		cj.lbLvl[c] = lvl[:0]
	}
	for _, v := range cj.bound {
		cj.slot[v] = -1
	}
	cj.bVis, cj.verts, cj.off, cj.next = cj.bVis[:0], cj.verts[:0], cj.off[:0], cj.next[:0]
	cj.bound, cj.head, cj.minHops = cj.bound[:0], cj.head[:0], cj.minHops[:0]
	cj.path, cj.suffix = cj.path[:0], cj.suffix[:0]
	cj.seamQuery = seamQuery{}
}
