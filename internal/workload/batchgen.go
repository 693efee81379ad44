package workload

import (
	"fmt"
	"math/rand"

	"pathenum/internal/graph"
)

// BatchQuery is one query of a generated batch set; unlike Query it
// carries its hop constraint, since batch files are consumed directly by
// Engine.ExecuteBatch rather than swept over k.
type BatchQuery struct {
	S, T graph.VertexID
	K    int
}

// BatchOptions configures shared-endpoint batch generation — the workload
// where dedupe and the single-flight frontier cache pay off: clusters of
// queries with a common source or target, optionally salted with exact
// duplicates.
type BatchOptions struct {
	// Count is the total number of queries (duplicates included).
	Count int
	// K is the hop constraint assigned to every query.
	K int
	// GroupSize is the number of queries per shared-endpoint cluster
	// (default 8). The last cluster may be short.
	GroupSize int
	// SharedTargetFrac is the fraction of clusters sharing a target
	// instead of a source (default 0.5).
	SharedTargetFrac float64
	// DupFrac replaces this fraction of the batch with exact duplicates
	// of earlier queries (default 0 = none), exercising the planner's
	// dedup path.
	DupFrac float64
	// MaxDist bounds dist(hub, partner) so queries are non-trivial,
	// following §7.1 (default 3).
	MaxDist int
	// TwoSided switches to hub-to-hub generation: a grid of GroupSize
	// source hubs crossed with enough target hubs to reach Count, so every
	// query shares its source with one cluster AND its target with
	// another. This is the workload the two-sided planner exists for —
	// Count queries touch only GroupSize + Count/GroupSize distinct
	// endpoints.
	TwoSided bool
	// TopFrac selects the high-degree hub pool as in Split (default 0.10).
	TopFrac float64
	// Seed drives sampling.
	Seed int64
	// MaxTries bounds sampling attempts (default 200*Count).
	MaxTries int
}

// GenerateBatch samples a shared-endpoint query batch per opts. Hubs are
// drawn from the high-degree set V' (their BFS frontiers are the expensive
// ones worth sharing); partners are arbitrary vertices within MaxDist of
// the hub in the query direction. Every returned query is valid (s != t)
// and feasible (dist(s,t) <= MaxDist <= K when MaxDist <= K).
func GenerateBatch(g *graph.Graph, opts BatchOptions) ([]BatchQuery, error) {
	if opts.Count <= 0 {
		return nil, fmt.Errorf("workload: non-positive batch count %d", opts.Count)
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("workload: batch k %d must be >= 1", opts.K)
	}
	if g.NumVertices() < 2 {
		return nil, fmt.Errorf("workload: graph too small (%d vertices)", g.NumVertices())
	}
	if opts.GroupSize <= 0 {
		opts.GroupSize = 8
	}
	if opts.SharedTargetFrac < 0 || opts.SharedTargetFrac > 1 {
		return nil, fmt.Errorf("workload: SharedTargetFrac %v out of [0,1]", opts.SharedTargetFrac)
	}
	if opts.DupFrac < 0 || opts.DupFrac >= 1 {
		if opts.DupFrac != 0 {
			return nil, fmt.Errorf("workload: DupFrac %v out of [0,1)", opts.DupFrac)
		}
	}
	if opts.MaxDist <= 0 {
		opts.MaxDist = 3
	}
	if opts.TopFrac <= 0 || opts.TopFrac >= 1 {
		opts.TopFrac = 0.10
	}
	if opts.MaxTries <= 0 {
		opts.MaxTries = 200 * opts.Count
	}

	hubs, _ := Split(g, opts.TopFrac)
	rng := rand.New(rand.NewSource(opts.Seed))
	dist := newBoundedBFS(g)
	n := g.NumVertices()

	fresh := opts.Count - int(opts.DupFrac*float64(opts.Count))
	if opts.TwoSided {
		return generateTwoSided(g, opts, hubs, rng, dist, fresh)
	}
	queries := make([]BatchQuery, 0, opts.Count)
	tries := 0
	for len(queries) < fresh && tries < opts.MaxTries {
		hub := hubs[rng.Intn(len(hubs))]
		sharedTarget := rng.Float64() < opts.SharedTargetFrac
		// One cluster: GroupSize distinct partners of the hub.
		seen := map[graph.VertexID]bool{hub: true}
		for got := 0; got < opts.GroupSize && len(queries) < fresh && tries < opts.MaxTries; tries++ {
			partner := graph.VertexID(rng.Intn(n))
			if seen[partner] {
				continue
			}
			var q BatchQuery
			if sharedTarget {
				// partner -> hub: the cluster shares its target.
				if !dist.within(partner, hub, opts.MaxDist) {
					continue
				}
				q = BatchQuery{S: partner, T: hub, K: opts.K}
			} else {
				if !dist.within(hub, partner, opts.MaxDist) {
					continue
				}
				q = BatchQuery{S: hub, T: partner, K: opts.K}
			}
			seen[partner] = true
			queries = append(queries, q)
			got++
		}
	}
	if len(queries) < fresh {
		return queries, fmt.Errorf("%w: got %d of %d", ErrNoQueries, len(queries), fresh)
	}
	// Salt with exact duplicates of earlier queries.
	for len(queries) < opts.Count {
		queries = append(queries, queries[rng.Intn(len(queries))])
	}
	return queries, nil
}

// generateTwoSided emits a hub-to-hub grid: GroupSize distinct source
// hubs crossed with ceil(fresh/GroupSize) distinct target hubs, each
// target reachable within MaxDist from every chosen source. Queries are
// emitted row-major (source-major) and truncated to fresh, then salted
// with duplicates like the one-sided path. The resulting batch has every
// query in both a shared-source and a shared-target cluster, which is
// the worst case for one-sided grouping and the reason the planner's
// bipartite pass exists.
func generateTwoSided(g *graph.Graph, opts BatchOptions, hubs []graph.VertexID, rng *rand.Rand, dist *boundedBFS, fresh int) ([]BatchQuery, error) {
	nSrc := opts.GroupSize
	if nSrc > fresh {
		nSrc = fresh
	}
	nTgt := (fresh + nSrc - 1) / nSrc
	if len(hubs) < nSrc+nTgt {
		return nil, fmt.Errorf("workload: hub pool %d too small for a %dx%d two-sided grid", len(hubs), nSrc, nTgt)
	}

	tries := 0
	srcs := make([]graph.VertexID, 0, nSrc)
	taken := make(map[graph.VertexID]bool)
	for len(srcs) < nSrc && tries < opts.MaxTries {
		tries++
		h := hubs[rng.Intn(len(hubs))]
		if taken[h] {
			continue
		}
		taken[h] = true
		srcs = append(srcs, h)
	}
	tgts := make([]graph.VertexID, 0, nTgt)
	for len(tgts) < nTgt && tries < opts.MaxTries {
		tries++
		h := hubs[rng.Intn(len(hubs))]
		if taken[h] {
			continue
		}
		ok := true
		for _, s := range srcs {
			if !dist.within(s, h, opts.MaxDist) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		taken[h] = true
		tgts = append(tgts, h)
	}
	if len(srcs) < nSrc || len(tgts) < nTgt {
		return nil, fmt.Errorf("%w: two-sided grid %dx%d incomplete (%d sources, %d targets)",
			ErrNoQueries, nSrc, nTgt, len(srcs), len(tgts))
	}

	queries := make([]BatchQuery, 0, opts.Count)
	for _, s := range srcs {
		for _, t := range tgts {
			if len(queries) == fresh {
				break
			}
			queries = append(queries, BatchQuery{S: s, T: t, K: opts.K})
		}
	}
	for len(queries) < opts.Count {
		queries = append(queries, queries[rng.Intn(len(queries))])
	}
	return queries, nil
}
