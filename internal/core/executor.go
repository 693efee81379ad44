package core

import (
	"context"
	"math"
	"slices"
	"time"

	"pathenum/internal/graph"
	"pathenum/internal/mem"
)

// executor owns the build → optimize → enumerate pipeline behind every
// query entry point: core.Run/RunContext, Session.Run/RunContext and (via
// sessions) the public Engine. Buffer reuse is pluggable — a long-lived
// executor allocates the O(|V|) distance labelings and the build's position
// map once and each query touches (and afterwards resets) only the entries
// its budget-bounded labeling reaches, while one-shot runs simply use a
// throwaway executor and pay the allocations once. Only the labeling and
// the index build are |V|-addressed: the enumerators run on the finished
// index, in its positions, with per-run |X|-sized state of their own, so
// the executor calls the same EnumerateDFS / EnumerateJoinSide everyone does.
//
// An executor is NOT safe for concurrent use; Session inherits that
// restriction and the Engine keeps one per worker.
type executor struct {
	g       *graph.Graph
	scratch *bfsScratch
	pos     *posMap
	oracle  DistanceOracle
	budget  *mem.Budget // nil = unbudgeted; admits join build sides
}

func newExecutor(g *graph.Graph, oracle DistanceOracle) *executor {
	n := g.NumVertices()
	return &executor{
		g:       g,
		scratch: newBFSScratch(n),
		pos:     newPosMap(n),
		oracle:  oracle,
	}
}

// SessionScratchBytes returns the worst-case resident size of one
// session's pooled per-query scratch on an n-vertex graph: the two distance
// labelings and their two visit lists (4 bytes per vertex each; a list
// holds every vertex only when a search labels the whole graph, but it
// keeps the capacity it grew to) and the index build's position map (4):
// 20 bytes per vertex. Enumeration state is per run and sized by the
// query's index, not by the graph, so it is not session scratch. The engine
// charges this per pooled session under mem.ClassScratch — the scratch
// is not optional, so it is accounted with Budget.Must and the effective
// budget is floored at the scratch requirement.
func SessionScratchBytes(n int) int64 { return int64(n) * 20 }

// execute runs one query through the full pipeline: oracle feasibility
// check, index construction (Algorithm 3), plan selection (§6) and
// enumeration (Algorithm 4 or 6).
//
// Cancellation is observed at three points: a context already done on
// entry returns its error before any work; a context done after the index
// build returns the partial Result (Completed=false) without enumerating;
// and during enumeration the amortized RunControl.ShouldStop hook stops
// the run within ~stopCheckInterval expansion events. opts.Timeout flows
// only through the hook — the build phase is O(|E|) bounded and was never
// deadline-checked.
func (e *executor) execute(ctx context.Context, q Query, opts Options) (*Result, error) {
	return e.executeShared(ctx, q, opts, nil, nil, nil)
}

// executeShared is execute with optionally precomputed distance labelings:
// a non-nil fwd stands in for the forward side from q.S and a non-nil bwd
// for the backward side from q.T. This is the frontier cache's entry
// point — queries sharing a source pass one forward Frontier, so each
// only runs the other side, restricted to what the frontier says the
// budget can use (bfsScratch.label). Frontier labels
// are a sound relaxation of the per-query ones (see the Frontier doc);
// Result.Timings.BFS and Result.BFSVisited cover only the per-query
// searches actually run, and index statistics may report a slightly
// larger (superset) index.
//
// A non-nil cons makes this a constrained query (Appendix E): the same
// labeling, index and cancellation points, the plan fixed to the sequential
// index DFS, and EnumerateConstrainedDFS as the enumeration step. The edge
// predicate is opts.Predicate, as for any query; cons.Predicate is not read.
func (e *executor) executeShared(ctx context.Context, q Query, opts Options, fwd, bwd *Frontier, cons *Constraints) (*Result, error) {
	if err := q.Validate(e.g); err != nil {
		return nil, err
	}
	if cons != nil {
		if err := cons.validate(); err != nil {
			return nil, err
		}
		opts.Method, opts.Parallelism = MethodDFS, 0
	}
	if fwd != nil {
		if err := fwd.compatible(e.g, q, true, opts.Predicate, opts.PredicateToken); err != nil {
			return nil, err
		}
	}
	if bwd != nil {
		if err := bwd.compatible(e.g, q, false, opts.Predicate, opts.PredicateToken); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Query: q}
	shouldStop := newStopper(ctx, opts.Timeout)
	oracle := opts.Oracle
	if oracle == nil {
		oracle = e.oracle
	}
	// A version-aware oracle built before a Dynamic.Insert must be
	// rejected, not consulted: its lower bounds no longer hold and would
	// silently over-prune the index (graph.ErrStaleEpoch under errors.Is).
	if err := validateOracle(oracle, e.g); err != nil {
		return nil, err
	}

	// Phase 1: index construction, with the BFS timed separately for the
	// Figure 12/17 breakdowns. The oracle answers provably infeasible
	// queries with no BFS at all (§7.5's response-time motivation).
	start := time.Now()
	if oracle != nil {
		if lb := oracle.LowerBound(q.S, q.T); lb < 0 || int(lb) > q.K {
			res.Completed = true
			res.Timings.Build = time.Since(start)
			res.Plan = Plan{Method: MethodDFS}
			return res, nil
		}
	}
	lab := e.scratch.label(e.g, q, opts.Predicate, oracle, fwd, bwd)
	res.BFSVisited = lab.visited
	res.Timings.BFS = time.Since(start)
	ix := buildIndex(e.g, q, lab, opts.Predicate, e.pos)
	res.Timings.Build = time.Since(start)
	res.IndexEdges = ix.Edges()
	res.IndexVertices = ix.NumIndexed()
	res.IndexBytes = ix.MemoryBytes()
	if ctx.Err() != nil {
		// Cancelled during the build: hand back what exists, enumerate
		// nothing. Work already started reports a partial Result rather
		// than an error, matching mid-enumeration cancellation.
		res.Plan = Plan{Method: MethodDFS}
		return res, nil
	}

	// Phase 2: plan selection (§6), then memory admission: a join plan
	// whose predicted build side (the Algorithm-5 estimate the planner
	// already computed) does not fit the remaining budget is demoted to
	// DFS *before* materializing anything. Path sets are pinned equal —
	// DFS and join enumerate the same set — so the fallback degrades cost,
	// never correctness. An admitted build side holds its reservation
	// (mem.ClassBuild) for the duration of the enumeration.
	optStart := time.Now()
	res.Plan = selectPlan(ix, opts)
	res.Timings.Optimize = time.Since(optStart)
	if res.Plan.Method == MethodJoin && e.budget != nil && res.Plan.Full != nil {
		need := predictedBuildBytes(res.Plan.Full, res.Plan.Cut, res.Plan.Build)
		if e.budget.TryReserve(mem.ClassBuild, need) {
			defer e.budget.Release(mem.ClassBuild, need)
		} else {
			res.Plan.Method = MethodDFS
			res.MemFallback = true
		}
	}
	// The same estimate sizes the build side's storage once, up front.
	var buildWalks uint64
	if res.Plan.Method == MethodJoin && res.Plan.Full != nil {
		buildWalks, _ = res.Plan.Full.buildSide(res.Plan.Cut, res.Plan.Build)
	}

	// Phase 3: enumeration, fanned across shard goroutines when the
	// caller requested intra-query parallelism (the fan-out covers only
	// this phase; phases 1-2 and the join's build side stay sequential).
	ctl := RunControl{Emit: opts.Emit, Limit: opts.Limit, ShouldStop: shouldStop}
	par := opts.Parallelism
	enumStart := time.Now()
	var err error
	switch {
	case cons != nil:
		res.Completed, err = EnumerateConstrainedDFS(ix, *cons, ctl, &res.Counters)
	case res.Plan.Method == MethodJoin:
		// The plan resolved the build side from the estimate it already
		// computed; the probe side streams through ctl.Emit tuple-at-a-time,
		// so a pull consumer (Session.Stream) gets its first joined path
		// after building only the smaller half.
		solo := ctl
		if par > 1 {
			solo = ownedEmit(ctl)
		}
		res.Completed, err = enumerateJoin(ix, res.Plan.Cut, res.Plan.Build, par, buildWalks, ctl, solo, &res.Counters, &res.JoinStats)
	case par > 1:
		res.Completed = EnumerateDFSParallel(ix, par, ctl, &res.Counters)
	default:
		res.Completed = EnumerateDFS(ix, ctl, &res.Counters)
	}
	if err != nil {
		return nil, err
	}
	res.Timings.Enumerate = time.Since(enumStart)
	return res, nil
}

// newStopper builds the RunControl.ShouldStop hook for one run, folding the
// context's cancellation/deadline and the optional Options.Timeout into a
// single check. It returns nil when the run is unbounded, so enumerators
// skip the poll entirely. The enumerators invoke the hook on an amortized
// event counter (every stopCheckInterval expansions), which keeps the
// time.Now/ctx.Err cost off the per-node hot path.
func newStopper(ctx context.Context, timeout time.Duration) func() bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	done := ctx.Done()
	if deadline.IsZero() && done == nil {
		return nil
	}
	return func() bool {
		if done != nil && ctx.Err() != nil {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}
}

// selectPlan applies the method override or runs the two-phase optimizer.
func selectPlan(ix *Index, opts Options) Plan {
	switch opts.Method {
	case MethodDFS:
		return Plan{Method: MethodDFS, Preliminary: PreliminaryEstimate(ix)}
	case MethodJoin:
		est := FullEstimate(ix)
		plan := Plan{Method: MethodJoin, Cut: est.Cut, Full: est, Preliminary: PreliminaryEstimate(ix)}
		if est.Cut == 0 {
			plan.Method = MethodDFS // k < 2 leaves no interior cut
		} else {
			plan.Build = est.BuildSideAt(est.Cut)
		}
		return plan
	default:
		return ChoosePlan(ix, opts.Tau)
	}
}

// buildSide returns what the estimator knows about the join's build side
// at cut: the number of walks EnumerateJoinSide would materialize for that
// side — Algorithm 5's count, exact for a left build, an upper bound for a
// right one (the build keeps only the cut vertices s reaches in exactly cut
// steps) — and the vertices per walk.
func (e *Estimate) buildSide(cut int, side BuildSide) (walks uint64, buildLen int) {
	if side == BuildAuto {
		side = e.BuildSideAt(cut)
	}
	if side == BuildRight {
		return e.SumToT[cut], e.k - cut + 1
	}
	return e.SumFromS[cut], cut + 1
}

// predictedBuildBytes converts the estimator's tuple count at the cut
// into the bytes EnumerateJoinSide would materialize for that side: the
// flat walk storage (buildLen vertices per tuple) plus one bucket index
// per tuple, 4 bytes each — the same shape JoinStats.PartialBytes reports
// after the fact. Saturates instead of overflowing on pathological
// estimates (which then only admit under an unlimited budget).
func predictedBuildBytes(est *Estimate, cut int, side BuildSide) int64 {
	tuples, buildLen := est.buildSide(cut, side)
	per := uint64(buildLen+1) * 4
	if tuples > math.MaxInt64/per {
		return math.MaxInt64
	}
	return int64(tuples * per)
}

// posMap is the reusable vertex -> index position map of index builds: the
// build needs it to turn neighbor ids into positions, the finished Index
// does not. pos is -1 everywhere except at the vertices of the index it last
// served (set), so handing it to the next build costs O(|X|), not O(|V|).
type posMap struct {
	pos []int32
	set []graph.VertexID
}

func newPosMap(n int) *posMap { return &posMap{pos: minusOnes(n)} }

// buildIndex assembles the index from a completed labeling (lines 2-11 of
// Algorithm 3). pm, the distance arrays and the candidate list serve the build
// only: the index owns everything it keeps (pm remembers ix.verts, which
// nobody writes, as its reset list). X is
// the candidates that pass inX; all of V is walked only when the candidates
// are a sweepShare-th of it or more, so the build stays O(touched).
func buildIndex(g *graph.Graph, q Query, lab labeling, pred EdgePredicate, pm *posMap) *Index {
	k := q.K
	k32 := int32(k)
	distS, distT := lab.distS, lab.distT

	ix := &Index{g: g, q: q, k: k, pred: pred}
	pos := pm.pos
	for _, v := range pm.set {
		pos[v] = -1
	}
	pm.set = nil

	inX := func(v graph.VertexID) bool {
		ds, dt := distS[v], distT[v]
		return ds >= 0 && dt >= 0 && ds+dt <= k32
	}
	// The partition X (lines 2-4). If either endpoint is outside X there is
	// no s-t path of length <= k and the index stays empty.
	if !inX(q.S) || !inX(q.T) {
		ix.empty = true
		ix.cSize = make([]int64, k+1)
		ix.sumIt = make([]uint64, k)
		return ix
	}
	// Positions follow ascending vertex id: sort the candidates that pass,
	// or sweep the id space where that is the cheaper way to the same list.
	if n := g.NumVertices(); lab.cand == nil || len(lab.cand) >= n/sweepShare {
		for v := graph.VertexID(0); int(v) < n; v++ {
			if inX(v) {
				ix.verts = append(ix.verts, v)
			}
		}
	} else {
		for _, v := range lab.cand {
			if inX(v) {
				ix.verts = append(ix.verts, v)
			}
		}
		slices.Sort(ix.verts)
	}
	pm.set = ix.verts
	m := len(ix.verts)
	ix.vs = make([]int32, m)
	ix.vt = make([]int32, m)
	for p, v := range ix.verts {
		pos[v] = int32(p)
		ix.vs[p] = distS[v]
		ix.vt[p] = distT[v]
	}
	ix.sPos, ix.tPos = pos[q.S], pos[q.T]
	ix.buildForward(distT, pos)
	ix.buildReverse(pos)
	ix.collectStats()
	return ix
}
