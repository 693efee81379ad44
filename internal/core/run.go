package core

import (
	"context"
	"time"

	"pathenum/internal/graph"
)

// Options configures one PathEnum query execution.
type Options struct {
	// Method selects the algorithm; MethodAuto enables the optimizer.
	Method Method
	// Tau overrides the preliminary-estimate threshold (0 = DefaultTau).
	Tau float64
	// Limit stops enumeration after this many results when positive.
	Limit uint64
	// Timeout bounds the whole run when positive.
	Timeout time.Duration
	// Emit receives each result path; the slice is reused — copy to
	// retain. Returning false stops the run. Nil counts only.
	Emit func(path []graph.VertexID) bool
	// Predicate restricts the query to edges satisfying it (Appendix E);
	// nil admits all edges.
	Predicate EdgePredicate
	// PredicateToken declares Predicate's identity for frontier sharing
	// and the engine's frontier cache (see core.PredicateToken). Leave it
	// zero for a nil Predicate. A non-nil Predicate with a zero token is
	// opaque: executed correctly, but excluded from sharing and caching.
	PredicateToken PredicateToken
	// Oracle, when non-nil, prunes index construction with global
	// distance lower bounds (§7.5 future work; see internal/landmark).
	// It must have been built on the same graph version; version-aware
	// oracles are checked per run and rejected with graph.ErrStaleEpoch.
	Oracle DistanceOracle
	// Deprecated: Parallelism is not read. Every query enumerates on one
	// goroutine — PathEnum's speed comes from the per-query index, and the
	// engine runs queries side by side instead (see DESIGN.md §10). The
	// field stays only so code that still sets it keeps compiling; a set
	// value gets the sequential answer.
	Parallelism int
}

// Timings breaks the query time into the phases reported by Figures 7, 12
// and 17.
type Timings struct {
	BFS       time.Duration // distance labeling (included in Build)
	Build     time.Duration // full index construction, BFS included
	Optimize  time.Duration // estimator + plan selection
	Enumerate time.Duration // result enumeration
	// FirstPath is the time from stream start (StreamConfig.Began when
	// set, else the first pull) to the first delivered path. Streamed
	// runs only; zero when no path was delivered or the run was not a
	// stream.
	FirstPath time.Duration
}

// Total returns the full query time.
func (t Timings) Total() time.Duration { return t.Build + t.Optimize + t.Enumerate }

// Result reports the outcome of one query execution. JoinStats is
// meaningful for join-planned runs (Plan.Method == MethodJoin): it
// records the build/probe footprint of the tuple-at-a-time join,
// including runs stopped early — ProbeWalks then shows how far the lazy
// probe got.
type Result struct {
	Query     Query
	Plan      Plan
	Counters  Counters
	JoinStats JoinStats
	Timings   Timings
	// Completed is false when the run stopped early (limit, timeout or
	// emit cancellation).
	Completed bool
	// IndexEdges / IndexVertices / IndexBytes describe the built index.
	IndexEdges    int64
	IndexVertices int
	IndexBytes    int64
	// BFSVisited is the number of vertices the run's own distance searches
	// labeled, summed over both sides; a side served by a shared Frontier
	// contributes 0 (with both sides shared, what the candidate walk
	// labeled). It is bounded by what the hop budget can reach from both
	// endpoints, not by |V|.
	BFSVisited int
	// MemFallback reports that a join-planned run was demoted to DFS
	// because the estimator predicted a build side exceeding the
	// session's remaining memory budget. Path sets are unaffected — DFS
	// and join enumerate the same set — only the cost profile changes.
	MemFallback bool
}

// Run executes q on g per opts: build index, plan, enumerate. This is the
// engine behind the public API and every experiment harness. It is a
// one-shot wrapper over the shared executor pipeline; services answering a
// query stream should hold a Session (or the public Engine) instead to
// amortize the per-query buffer allocations.
func Run(g *graph.Graph, q Query, opts Options) (*Result, error) {
	return RunContext(context.Background(), g, q, opts)
}

// RunContext is Run observing ctx: cancellation or a context deadline stops
// the enumeration early (Result.Completed reports false), checked on an
// amortized event counter alongside opts.Timeout.
func RunContext(ctx context.Context, g *graph.Graph, q Query, opts Options) (*Result, error) {
	return newExecutor(g, nil).execute(ctx, q, opts)
}

// Count returns the number of hop-constrained s-t paths, running the full
// optimizer with no limits. Convenience wrapper used widely in tests.
func Count(g *graph.Graph, q Query) (uint64, error) {
	res, err := Run(g, q, Options{})
	if err != nil {
		return 0, err
	}
	return res.Counters.Results, nil
}
