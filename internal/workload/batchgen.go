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
