package main

import (
	"fmt"

	"pathenum"
	"pathenum/internal/baseline"
	"pathenum/internal/core"
	"pathenum/internal/workload"
)

// maxPathLen bounds the vertex count of a checked path (k <= 7).
const maxPathLen = 8

// checkedQueries is how many queries of heavy_enum and shard_cross have
// every path checked; shard_cross also compares the first setQueries path
// sets with the single-image engine's.
const (
	checkedQueries = 32
	setQueries     = 64
)

// pathChecker checks the paths delivered for one query: each runs from s
// to t in at most k hops over edges of g, visits no vertex twice, and no
// path is delivered twice.
type pathChecker struct {
	g    *pathenum.Graph
	q    workload.Query
	k    int
	seen map[[maxPathLen]pathenum.VertexID]struct{}
}

func newPathChecker(g *pathenum.Graph, q workload.Query, k int) *pathChecker {
	return &pathChecker{g: g, q: q, k: k, seen: make(map[[maxPathLen]pathenum.VertexID]struct{})}
}

func (c *pathChecker) add(p []pathenum.VertexID) error {
	if len(p) < 2 || len(p) > c.k+1 || len(p) > maxPathLen {
		return fmt.Errorf("path %v has %d vertices, want 2..%d", p, len(p), c.k+1)
	}
	if p[0] != c.q.S || p[len(p)-1] != c.q.T {
		return fmt.Errorf("path %v does not run %d -> %d", p, c.q.S, c.q.T)
	}
	var key [maxPathLen]pathenum.VertexID
	for i := range key {
		key[i] = -1
	}
	for i, v := range p {
		for _, u := range p[:i] {
			if u == v {
				return fmt.Errorf("path %v visits %d twice", p, v)
			}
		}
		if i > 0 && !c.g.HasEdge(p[i-1], v) {
			return fmt.Errorf("path %v uses edge %d->%d, which the graph does not have", p, p[i-1], v)
		}
		key[i] = v
	}
	if _, dup := c.seen[key]; dup {
		return fmt.Errorf("path %v was delivered twice", p)
	}
	c.seen[key] = struct{}{}
	return nil
}

func (c *pathChecker) addAll(paths []pathenum.Path) error {
	for _, p := range paths {
		if err := c.add(p); err != nil {
			return err
		}
	}
	return nil
}

// checkCount compares a delivered result count with the reference.
func checkCount(q workload.Query, got, want uint64) error {
	if got != want {
		return fmt.Errorf("q(%d,%d): %d results, reference says %d", q.S, q.T, got, want)
	}
	return nil
}

// refCounter counts results with the generic DFS baseline (Algorithm 1),
// which shares no code with the index, the estimator or the enumerators.
type refCounter struct{ dfs baseline.GenericDFS }

func (r *refCounter) count(g *pathenum.Graph, q workload.Query, k int, limit uint64) (uint64, error) {
	if err := r.dfs.Prepare(g, core.Query{S: q.S, T: q.T, K: k}); err != nil {
		return 0, err
	}
	var ctr core.Counters
	if _, err := r.dfs.Enumerate(core.RunControl{Limit: limit}, &ctr); err != nil {
		return 0, err
	}
	return ctr.Results, nil
}

// verifyAgainstBrute checks the full delivered path set of one query
// against unpruned backtracking and returns the reference count. A result
// set the limit cut short must be limit distinct members of the brute set.
func verifyAgainstBrute(g *pathenum.Graph, q workload.Query, k int, limit uint64, got []pathenum.Path) (uint64, error) {
	brute := baseline.BrutePaths(g, q.S, q.T, k)
	if limit == 0 || uint64(len(brute)) <= limit {
		if !baseline.SamePathSet(got, brute) {
			return uint64(len(brute)), fmt.Errorf("q(%d,%d): %d delivered paths are not the brute-force set of %d", q.S, q.T, len(got), len(brute))
		}
		return uint64(len(brute)), nil
	}
	// Every valid, distinct s-t path within k hops is in the brute set, so
	// validity and distinctness are membership.
	if err := newPathChecker(g, q, k).addAll(got); err != nil {
		return limit, err
	}
	return limit, checkCount(q, uint64(len(got)), limit)
}
