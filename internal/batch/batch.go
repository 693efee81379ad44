// Package batch is the shared-computation batch query subsystem: it plans
// and executes a set of HcPE queries against one graph so that work common
// to several queries is paid once instead of once per query.
//
// PathEnum's per-query index construction is dominated by two bounded BFS
// distance passes — forward from s and backward from t (§4.2, Algorithm 3
// line 1). A batch of queries sharing a source or a target therefore
// repeats identical BFS work, which is exactly the redundancy that batch
// HcPE processing eliminates via common-computation detection (Yuan et
// al., "Batch Hop-Constrained s-t Simple Path Query Processing in Large
// Graphs", 2023). This package implements that idea on top of the core
// executor pipeline:
//
//	Planner    canonicalizes the batch — exact-duplicate queries (same
//	           s, t and k) are answered once and fanned back out — and
//	           groups the remainder by shared source and shared target.
//	Frontier   (internal/core) one shared bounded BFS labeling per group,
//	           reused across every member's index build.
//	Scheduler  orders groups by estimated cost and executes them across
//	           a worker pool, recording per-batch Stats (queries deduped,
//	           BFS passes saved, per-group timings).
//
// The public surface is Engine.ExecuteBatch in the root package;
// Engine.ExecuteAllContext remains the naive independent fan-out and is
// the baseline the batch benchmarks compare against.
package batch

import (
	"time"

	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// GroupKind classifies how a planned group shares computation.
type GroupKind uint8

const (
	// KindSingleton is a group of one query with nothing to share; both
	// BFS passes run per query, exactly like the naive fan-out.
	KindSingleton GroupKind = iota
	// KindSharedSource groups queries with a common source: one shared
	// forward frontier from the hub, one backward pass per member.
	KindSharedSource
	// KindSharedTarget groups queries with a common target: one shared
	// backward frontier to the hub, one forward pass per member.
	KindSharedTarget
)

// String implements fmt.Stringer.
func (k GroupKind) String() string {
	switch k {
	case KindSingleton:
		return "singleton"
	case KindSharedSource:
		return "shared-source"
	case KindSharedTarget:
		return "shared-target"
	default:
		return "unknown"
	}
}

// FrontierProvider serves prebuilt distance frontiers to the scheduler
// and collects the ones it builds — the seam the engine's cross-batch
// frontier cache plugs into. Lookup returns a frontier valid for the
// current graph version with the given origin, direction and bound >= k,
// or nil on a miss; Store deposits a freshly built frontier for later
// batches, with uses reporting how many planned executions of this batch
// reuse it (>= 2 for a planned-shared frontier, 1 for a per-member side)
// so the provider can apply an admission policy — the engine refuses
// once-used low-degree endpoints rather than bloating its LRU, and a
// byte-budgeted cache refuses deposits it has no room for. Store reports
// whether the frontier was actually retained; the scheduler only counts
// refusals (Stats.DepositsRefused) — the batch itself already holds the
// frontier it built.
//
// A shareable frontier is the endpoint's whole k-ball, far more than the
// budget-bounded labeling a query runs for itself, so a side only one
// execution uses is worth building only for the deposit. Admits answers
// that before the build: whether Store(f, 1) would retain a frontier from
// this endpoint. A side it turns down is never built — the member labels
// it itself — so Store refuses a once-used frontier only when the
// provider's room changed in between.
// Implementations must be safe for concurrent use (the scheduler calls
// from every worker) and are responsible for version invalidation — a
// frontier returned by Lookup is still re-validated by the core executor,
// so a misbehaving provider fails queries rather than corrupting them.
type FrontierProvider interface {
	Lookup(origin graph.VertexID, forward bool, k int) *core.Frontier
	Admits(origin graph.VertexID, forward bool) bool
	Store(f *core.Frontier, uses int) bool
}

// FrontierSpec names one planned-shared BFS side of a batch: a (origin,
// direction) endpoint that two or more planned executions need, detected
// by the planner's two-sided pass over the (source, target) co-occurrence
// of the unique queries. The scheduler builds each spec at most once
// (single-flight) and serves every user from the result, so a cold batch
// pays one BFS per distinct endpoint — group hubs and second sides alike —
// instead of one per group plus one per member.
type FrontierSpec struct {
	Origin  graph.VertexID
	Forward bool
	// MaxK is the largest hop constraint among the spec's users; the
	// frontier is built to this bound so every user can reuse it.
	MaxK int
	// Uses counts the planned executions that reuse this side (>= 2).
	Uses int
}

// GroupTiming reports how one scheduled group spent its time.
type GroupTiming struct {
	Kind GroupKind
	// Hub is the shared endpoint (source or target); for a singleton it
	// is the query's source.
	Hub graph.VertexID
	// Size is the number of member queries.
	Size int
	// SharedBFS is the time spent building the group's shared frontier
	// (zero for singletons and for cache hits).
	SharedBFS time.Duration
	// CacheHit reports that the group's shared frontier came from the
	// FrontierProvider instead of a BFS pass.
	CacheHit bool
	// Estimate is the cardinality-feedback signal recorded after the
	// group's probe member ran: the probe's preliminary search-space
	// estimate (Equation 5), or the group's static Cost when the probe
	// failed. Remaining members across the whole batch are re-ranked by
	// this value, cheapest first.
	Estimate float64
	// Elapsed is the wall time from group start to the last member done
	// (zero when the batch was cancelled before the group finished).
	Elapsed time.Duration
}

// Stats summarizes one batch execution: what the planner found to share
// and what the scheduler did with it. BFS pass counts are the planner's
// nominal accounting (an oracle infeasibility certificate can still skip
// a counted pass at execution time).
type Stats struct {
	// Queries is the original batch size, duplicates and invalid queries
	// included.
	Queries int
	// Invalid counts queries rejected by validation.
	Invalid int
	// Unique is the number of deduplicated valid queries executed.
	Unique int
	// Deduped counts duplicate queries folded into an already-planned
	// execution (valid - unique).
	Deduped int
	// Groups is the number of scheduled groups, singletons included.
	Groups int
	// SharedSourceGroups / SharedTargetGroups / Singletons break Groups
	// down by kind.
	SharedSourceGroups int
	SharedTargetGroups int
	Singletons         int
	// BFSPassesNaive is what the naive fan-out would run: two passes per
	// valid query, duplicates included.
	BFSPassesNaive int
	// BFSPasses is the plan's nominal pass count under two-sided sharing:
	// one per shared frontier spec (a side two or more unique queries
	// need) plus one per side only a single query needs — at most one BFS
	// per distinct (endpoint, direction) in the batch.
	BFSPasses int
	// BFSPassesSaved = BFSPassesNaive - BFSPasses.
	BFSPassesSaved int
	// BFSPassesRun counts the BFS passes actually executed: frontier
	// builds plus per-member session passes. Equal to BFSPasses with no
	// FrontierProvider; drops toward zero as the provider's cache warms
	// (a fully warm repeat batch runs none), and exceeds BFSPasses only
	// when an opaque predicate (non-nil Options.Predicate with a zero
	// PredicateToken) disables sharing. Session-side passes an oracle
	// infeasibility certificate skips are still counted.
	BFSPassesRun int
	// FrontierCacheHits / FrontierCacheMisses count FrontierProvider
	// lookups during this batch (shared-spec and per-member sides);
	// both stay zero without a provider.
	FrontierCacheHits   int
	FrontierCacheMisses int
	// DepositsRefused counts frontiers this batch built and offered that
	// the provider declined to retain — admission policy or a memory
	// budget out of headroom. The batch itself is unaffected (it holds
	// what it built); later batches just start cold on those endpoints.
	DepositsRefused int
	// SharedFrontiers is the number of planned shared frontier specs
	// (Plan.Shared); TwoSidedFrontiers counts the subset that is not a
	// group's own hub side — the cross-group and second-side sharing the
	// two-sided pass finds beyond single-endpoint grouping.
	SharedFrontiers   int
	TwoSidedFrontiers int
	// SharedBFS is the total time spent building shared frontiers.
	SharedBFS time.Duration
	// Elapsed is the wall time of the whole batch execution.
	Elapsed time.Duration
	// GroupTimings has one entry per scheduled group, in scheduling
	// (estimated-cost) order.
	GroupTimings []GroupTiming
}
