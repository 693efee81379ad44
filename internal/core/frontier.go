package core

import (
	"fmt"
	"math"

	"pathenum/internal/graph"
)

// PredicateToken is the explicit identity of an EdgePredicate for frontier
// sharing and caching. Go function values cannot be compared for
// behavioral equality (two closures over different state share a code
// pointer), so the identity is declared by the caller instead of guessed:
// every distinct predicate behavior gets a distinct non-zero token, and
// behaviorally identical predicates reuse one token. The token is part of
// the frontier-compatibility contract and of the engine's frontier-cache
// key.
//
// PredicateNone (the zero token) means "no predicate" and is the only
// token valid alongside a nil EdgePredicate. A non-nil predicate with a
// zero token is an *opaque* predicate: frontiers cannot be built for it,
// and the engine's frontier cache falls back to unshared per-query
// execution — correct, just without reuse.
type PredicateToken uint64

// PredicateNone identifies the nil predicate.
const PredicateNone PredicateToken = 0

// Frontier is a precomputed bounded BFS distance labeling from one
// endpoint, shareable — through the engine's frontier cache — across every
// query that has that endpoint in common: queries sharing a source reuse
// one forward frontier from s for their index builds, paying one BFS pass
// instead of one each.
//
// Relaxation vs the per-query labeling. A per-query forward BFS computes
// S(s,v | G-{t}) — the opposite endpoint is never expanded — and stops at
// depth q.K. A shared frontier cannot exclude a per-query endpoint or use a
// per-query bound, so it runs in the full graph to depth bound >= k. Both
// differences only *lower* labels (G-{t} distances are >= G distances) or
// label extra vertices (depth k..bound), so the partition X built from a
// frontier is a superset of the exact one and every exact index edge
// survives. That is sound: completeness only needs X to cover the exact
// partition, and neither enumerator can emit an invalid result from extra
// index entries — the DFS (Algorithm 4) checks simplicity and the hop
// budget on the path itself, and the join (Algorithm 6) validates every
// joined tuple (joinPath). The extra entries cost only wasted
// exploration, which the cache's degree-based admission trades against
// the saved BFS passes. TestRunSharedMatchesRun cross-checks the emitted
// path sets.
//
// Cost. A Frontier labels its endpoint's whole ball to depth bound and
// holds 4 bytes per vertex of the graph, whereas a query's own labeling
// (bfsScratch.label) touches only what the hop budget can use from both
// ends. It is grown by the labeling's own level kernel (bfsSide.expand),
// every level complete: the last levels of a near-full ball run
// bottom-up, each unlabeled vertex looking for one parent instead of the
// frontier scanning all of its edges, so a hub's build scans a sixth to a
// tenth of the edges a plain BFS would (BenchmarkFrontierBuild). A query
// handed a Frontier treats that side as complete and runs the other side
// restricted to the frontier's labels, so sharing pays off from the second
// user on: a frontier built for one query alone costs more than the search
// it replaces.
//
// A Frontier captures the graph's (lineage, epoch) version at construction
// and is validated against the execution graph on every use: a frontier
// built before a Dynamic.Insert is rejected with graph.ErrStaleEpoch
// rather than silently labeling a mutated graph. A Frontier is immutable
// after construction and safe for concurrent use by any number of readers.
type Frontier struct {
	ver     graph.Version
	origin  graph.VertexID
	bound   int
	forward bool
	predTok PredicateToken
	hasPred bool
	dist    []int32
}

// NewForwardFrontier runs one bounded BFS from s along out-edges in the
// full graph (no excluded endpoint) and returns the labeling, valid for any
// query with source s and K <= bound on a graph of the same version. A
// non-nil pred restricts the search to edges satisfying it and must be
// identified by a non-zero token; queries sharing the frontier must carry
// the same predicate token (see PredicateToken).
func NewForwardFrontier(g *graph.Graph, s graph.VertexID, bound int, pred EdgePredicate, tok PredicateToken) (*Frontier, error) {
	return newFrontier(g, s, bound, true, pred, tok)
}

// NewBackwardFrontier is the mirrored construction: one bounded BFS from t
// along in-edges, valid for any query with target t and K <= bound.
func NewBackwardFrontier(g *graph.Graph, t graph.VertexID, bound int, pred EdgePredicate, tok PredicateToken) (*Frontier, error) {
	return newFrontier(g, t, bound, false, pred, tok)
}

// newFrontier validates the arguments and grows the frontier of origin.
func newFrontier(g *graph.Graph, origin graph.VertexID, bound int, forward bool, pred EdgePredicate, tok PredicateToken) (*Frontier, error) {
	if err := checkFrontierArgs(g, origin, bound, pred, tok); err != nil {
		return nil, err
	}
	sd := growFrontier(g, origin, bound, forward, pred)
	return &Frontier{ver: g.Version(), origin: origin, bound: bound, forward: forward, predTok: tok, hasPred: pred != nil, dist: sd.dist}, nil
}

// growFrontier labels origin's ball to depth bound with the labeling's own
// level kernel, every level complete and no endpoint excluded.
func growFrontier(g *graph.Graph, origin graph.VertexID, bound int, forward bool, pred EdgePredicate) *bfsSide {
	sd := &bfsSide{dist: minusOnes(g.NumVertices())}
	sd.start(g, origin, noVertex, forward)
	sd.finish(g, int32(bound), pred, nil, math.MaxInt64)
	return sd
}

func checkFrontierArgs(g *graph.Graph, origin graph.VertexID, bound int, pred EdgePredicate, tok PredicateToken) error {
	if origin < 0 || origin >= graph.VertexID(g.NumVertices()) {
		return fmt.Errorf("core: frontier origin %d out of range [0,%d)", origin, g.NumVertices())
	}
	if bound < 1 {
		return fmt.Errorf("core: frontier bound %d must be >= 1", bound)
	}
	if pred == nil && tok != PredicateNone {
		return fmt.Errorf("core: predicate token %d without a predicate", tok)
	}
	if pred != nil && tok == PredicateNone {
		return fmt.Errorf("core: frontier predicate needs a non-zero PredicateToken (opaque predicates cannot be shared)")
	}
	return nil
}

// Origin returns the endpoint the frontier was grown from.
func (f *Frontier) Origin() graph.VertexID { return f.origin }

// Bound returns the BFS depth bound; queries with K <= Bound may share it.
func (f *Frontier) Bound() int { return f.bound }

// IsForward reports the direction: true for distances *from* the origin
// along out-edges, false for distances *to* the origin along in-edges.
func (f *Frontier) IsForward() bool { return f.forward }

// PredToken returns the identity token of the predicate the frontier was
// built under (PredicateNone for an unfiltered frontier).
func (f *Frontier) PredToken() PredicateToken { return f.predTok }

// GraphVersion returns the (lineage, epoch) version of the graph the
// frontier was built on; it is the frontier's validity domain.
func (f *Frontier) GraphVersion() graph.Version { return f.ver }

// Epoch returns the graph epoch the frontier was built at.
func (f *Frontier) Epoch() uint64 { return f.ver.Epoch() }

// MemoryBytes reports the resident size of the labeling, the unit the
// frontier cache budgets by.
func (f *Frontier) MemoryBytes() int64 { return FrontierBytes(len(f.dist)) }

// FrontierBytes is the MemoryBytes of any Frontier on an n-vertex graph,
// known before building one.
func FrontierBytes(n int) int64 { return int64(n) * 4 }

// Dist returns the labeled distance of v, or -1 if v was not reached
// within the bound.
func (f *Frontier) Dist(v graph.VertexID) int32 { return f.dist[v] }

// compatible reports whether the frontier can serve query q on g for the
// given direction, with a descriptive error when it cannot. Version
// mismatches within one lineage surface graph.ErrStaleEpoch (match with
// errors.Is), the signal callers use to choose between rebuilding and
// failing; predicate identity is compared by token (see PredicateToken) —
// there is no reflection-based function comparison.
func (f *Frontier) compatible(g *graph.Graph, q Query, forward bool, pred EdgePredicate, tok PredicateToken) error {
	if err := f.ver.ValidFor(g.Version()); err != nil {
		return fmt.Errorf("core: frontier unusable: %w", err)
	}
	if f.forward != forward {
		return fmt.Errorf("core: frontier direction mismatch (forward=%v, need forward=%v)", f.forward, forward)
	}
	want := q.S
	if !forward {
		want = q.T
	}
	if f.origin != want {
		return fmt.Errorf("core: frontier origin %d does not match query endpoint %d", f.origin, want)
	}
	if q.K > f.bound {
		return fmt.Errorf("core: frontier bound %d too small for k=%d", f.bound, q.K)
	}
	if f.hasPred != (pred != nil) {
		return fmt.Errorf("core: frontier predicate mismatch (frontier has predicate: %v, query has predicate: %v)", f.hasPred, pred != nil)
	}
	if pred != nil && tok == PredicateNone {
		return fmt.Errorf("core: query predicate needs a non-zero PredicateToken to use a shared frontier")
	}
	if f.predTok != tok {
		return fmt.Errorf("core: frontier was built under a different edge predicate (token %d, query token %d)", f.predTok, tok)
	}
	return nil
}
