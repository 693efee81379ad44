package core

import (
	"fmt"

	"pathenum/internal/graph"
)

// DistanceOracle abstracts the global offline index of §7.5 (future work):
// a source of lower bounds on directed distances. LowerBound(u,v) must
// never exceed the true distance d(u,v) in the graph the queries run on,
// and may return a negative value to certify that v is unreachable from u.
// internal/landmark provides the landmark-based implementation.
type DistanceOracle interface {
	LowerBound(u, v graph.VertexID) int32
}

// GraphValidator is implemented by derived structures tied to one graph
// version — the landmark oracle does. ValidFor returns nil when the
// structure may serve g, and an error (graph.ErrStaleEpoch for an older
// epoch of the same lineage) otherwise. Execution checks it before every
// oracle use: edge insertions shrink true distances, so a stale oracle's
// "lower bounds" would silently prune vertices that now belong to the
// index. Oracles that do not implement GraphValidator are trusted as-is;
// keeping them in sync with the graph stays the caller's responsibility.
type GraphValidator interface {
	ValidFor(g *graph.Graph) error
}

// validateOracle rejects a version-aware oracle that no longer matches g.
func validateOracle(oracle DistanceOracle, g *graph.Graph) error {
	if v, ok := oracle.(GraphValidator); ok {
		if err := v.ValidFor(g); err != nil {
			return fmt.Errorf("core: distance oracle unusable: %w", err)
		}
	}
	return nil
}

// BuildIndexOracle constructs the light-weight index with oracle-pruned
// BFS passes. The oracle must have been built on g (or on a subgraph view
// whose distances are no smaller) — version-aware oracles (GraphValidator)
// are checked and a stale one is rejected with graph.ErrStaleEpoch; with a
// nil oracle this is BuildIndex.
func BuildIndexOracle(g *graph.Graph, q Query, oracle DistanceOracle) (*Index, error) {
	if err := q.Validate(g); err != nil {
		return nil, err
	}
	if err := validateOracle(oracle, g); err != nil {
		return nil, err
	}
	if oracle != nil {
		// Infeasibility certificate: no BFS at all (§7.5's response-time
		// motivation).
		if lb := oracle.LowerBound(q.S, q.T); lb < 0 || int(lb) > q.K {
			ix := &Index{g: g, q: q, k: q.K, empty: true}
			ix.cSize = make([]int64, q.K+1)
			ix.sumIt = make([]uint64, q.K)
			return ix, nil
		}
	}
	ix, _, err := buildOneShot(g, q, nil, oracle)
	return ix, err
}
