package pathenum

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pathenum/internal/cache"
	"pathenum/internal/core"
	"pathenum/internal/landmark"
	"pathenum/internal/mem"
)

// DistanceOracle is the global offline index of §7.5: lower bounds on
// directed distances that prune per-query index construction and answer
// infeasible queries without any BFS. Build it once per graph version
// with BuildOracle and pass it via Options.Oracle or EngineConfig.
type DistanceOracle = core.DistanceOracle

// BuildOracle constructs a landmark distance oracle over g with the given
// number of landmarks (0 picks a default). Construction costs two full BFS
// passes per landmark. The oracle captures g's version and is enforced to
// it: after edge insertions (a later-epoch snapshot), execution rejects it
// with ErrStaleEpoch instead of silently over-pruning — rebuild it and
// re-install with Engine.SetOracle.
func BuildOracle(g *Graph, numLandmarks int) (DistanceOracle, error) {
	return landmark.Build(g, numLandmarks)
}

// DefaultFrontierCacheSize is the frontier-cache entry bound used when
// EngineConfig.FrontierCache is 0. Each entry holds one O(|V|) distance
// labeling (4 bytes per vertex), so the entry count alone does not bound
// resident bytes — set EngineConfig.MemoryBudgetBytes on large graphs
// and the cache becomes byte-bounded (half the budget), evicting and
// refusing deposits instead of growing with the graph.
const DefaultFrontierCacheSize = cache.DefaultCapacity

// FrontierCacheStats snapshots the engine's frontier-cache counters:
// hits, misses, capacity evictions, lazy epoch invalidations, occupancy
// and resident bytes.
type FrontierCacheStats = cache.Stats

// EngineConfig configures a concurrent query engine.
type EngineConfig struct {
	// Workers is the number of concurrent query executors (default 4).
	Workers int
	// Oracle optionally accelerates every query (see BuildOracle). A
	// version-aware oracle must match the engine's graph.
	Oracle DistanceOracle
	// Options are the per-query defaults (Method, Tau, Limit, Timeout).
	Options Options
	// FrontierCache bounds the cross-batch frontier cache in entries:
	// 0 uses DefaultFrontierCacheSize, negative disables caching. The
	// cache serves repeat endpoints — a hot fraud hub queried in every
	// batch — with zero BFS passes; see internal/cache.
	FrontierCache int
	// CacheAdmitDegree gates frontier deposits: on a cache miss the
	// shareable labeling is built and deposited only when the
	// endpoint's degree (out-degree of S for the forward side, in-degree
	// of T for the backward side) is at least this threshold, so only
	// hub-grade endpoints — the ones likely to repeat — pay the
	// deposit's full-ball search and O(|V|) allocation. Single queries,
	// streams and batch members are one path here: a batch's queries are
	// single queries run side by side. 0 uses DefaultCacheAdmitDegree;
	// negative disables deposits.
	CacheAdmitDegree int
	// SnapshotEvery batches the engine write path: Engine.Insert publishes
	// a fresh immutable snapshot only after this many applied insertions,
	// with Flush forcing the remainder out. 0 or 1 publishes on every
	// insert — queries observe each write immediately. A publish costs
	// what its edges touch (each 1024-vertex adjacency chunk an edge lands
	// in is rebuilt once, the rest is shared with the previous snapshot),
	// not |E|, so a larger value only trades read freshness (reads lag by
	// at most SnapshotEvery-1 edges until the next publish) for rebuilding
	// a chunk once per batch instead of once per edge landing in it, and
	// for fewer epochs (cached frontiers, the oracle). No non-test caller
	// in this repository sets a value other than 1.
	SnapshotEvery int
	// Metrics, when non-nil, is the registry the engine registers its
	// series on — share one registry between the engine and an HTTP
	// front end so a single /metrics scrape covers both. Nil creates a
	// private registry, readable via Engine.Metrics.
	Metrics *MetricsRegistry
	// MemoryBudgetBytes, when positive, bounds the engine's accounted
	// resident memory: frontier-cache entries, pooled per-session scratch
	// and join build sides all charge one shared byte ledger. The cache
	// is additionally capped at half the budget and evicts/refuses
	// deposits on bytes; a join whose estimator-predicted build side does
	// not fit the remaining headroom degrades to the pinned-equal DFS
	// plan (Result.MemFallback) instead of materializing; per-worker
	// session scratch (core.SessionScratchBytes per session) is charged
	// unconditionally — the engine floors the effective budget at that
	// requirement, so a pathologically small budget serves correctly with
	// every optional consumer degraded. 0 disables budgeting (unlimited).
	// Observable via Engine.MemStats and the pathenum_mem_* gauges.
	MemoryBudgetBytes int64
	// OracleLandmarks, when positive, keeps oracle pruning available on a
	// mutating graph: every published snapshot schedules a distance-oracle
	// rebuild with this many landmarks on a single-flight background
	// worker. The snapshot serves immediately — publishing inserts never
	// block on the O(landmarks x BFS) rebuild — and queries run unpruned
	// (stale oracle dropped, epoch-checked) until the fresh oracle lands;
	// WaitOracle blocks until it does, and OracleLag reports how long the
	// engine has been serving degraded. Rapid publishes coalesce: a
	// rebuild superseded by a newer snapshot is discarded, not installed.
	// When 0, a version-aware oracle is simply dropped at the first
	// publish that invalidates it (queries keep working, unpruned, until
	// SetOracle re-installs one).
	OracleLandmarks int
}

// DefaultCacheAdmitDegree is the single-query deposit admission threshold
// used when EngineConfig.CacheAdmitDegree is 0: endpoints with degree
// below it are served without depositing, keeping cold-traffic queries on
// the allocation-free scratch path.
const DefaultCacheAdmitDegree = 16

// Engine executes HcPE queries concurrently against one immutable graph
// version at a time. PathEnum's state is per query (the index is built per
// query), so queries parallelize without coordination — the online
// scenario of §1. Each worker reuses a core.Session, so the O(|V|)
// per-query buffers are allocated once per worker rather than once per
// query — or per publish: the session pool lives as long as the engine, and
// a session is bound to the captured (graph, oracle) view at checkout.
//
// The engine owns two cross-query structures keyed by graph version: the
// optional distance oracle and the frontier cache (an LRU of shared BFS
// labelings consulted by every surface, filled single-flight and deposited
// behind a degree-based admission check). Dynamic workloads advance the
// engine either through the engine-owned write path (Insert/Flush: the
// engine owns the Dynamic, batches publishes per SnapshotEvery and
// refreshes the oracle per OracleLandmarks on a background single-flight
// worker) or with caller-built snapshots via UpdateGraph; both bump the
// graph epoch, so cached frontiers invalidate lazily on lookup — no sweep
// — and a stale oracle is rebuilt in the background or dropped rather than
// consulted.
//
// The zero Engine is not usable; create one with NewEngine.
type Engine struct {
	cfg     EngineConfig
	workers int
	cache   *cache.FrontierCache // nil when disabled
	budget  *mem.Budget          // nil when MemoryBudgetBytes is 0

	// mu guards the mutable graph view: the current graph and the oracles
	// valid for it (the engine-level one and the per-query default in
	// defaults.Oracle). UpdateGraph and SetOracle swap the pieces
	// together; queries capture a consistent view under RLock and finish
	// on it even if the engine advances mid-flight.
	mu       sync.RWMutex
	g        *Graph
	oracle   DistanceOracle
	defaults Options
	// sessions pools idle sessions for the engine's lifetime; session binds
	// one to a captured view at checkout.
	sessions sync.Pool
	// scratchBytes is the session scratch currently charged to the budget
	// (workers x core.SessionScratchBytes of the serving graph), written
	// under mu by graph swaps so the charge follows the graph size.
	scratchBytes int64

	// wmu serializes the engine-owned write path (Insert/Flush) and
	// guards the Dynamic plus the count of insertions not yet published
	// as a snapshot. Lock order: wmu before mu, never the reverse.
	wmu     sync.Mutex
	dyn     *Dynamic
	pending int

	// Worker-pool occupancy gauge (see PoolStats): queries currently
	// executing.
	inFlight atomic.Int64

	// metrics holds the pre-resolved observability handles (see
	// metrics.go). oldestPendingNs is the unix-nano timestamp of the
	// oldest insertion not yet published as a snapshot (0 when none) —
	// written under wmu, read lock-free by the insert-lag gauge.
	metrics         *engineMetrics
	oldestPendingNs atomic.Int64

	// Background oracle rebuild state (OracleLandmarks > 0). rebuildMu
	// guards the target/active/done fields; the single-flight rebuild
	// loop drains rebuildTarget until nil, so rapid publishes coalesce
	// onto the newest snapshot. degradedSinceNs is the unix-nano
	// timestamp since which the engine has been serving without a fresh
	// oracle (0 when not degraded) — read lock-free by the
	// oracle-lag gauge. Lock order: rebuildMu is a leaf — never held
	// while taking wmu or mu.
	rebuildMu     sync.Mutex
	rebuildTarget *Graph
	rebuildActive bool
	rebuildDone   chan struct{}
	degradedSince atomic.Int64
}

// NewEngine creates an engine over g.
func NewEngine(g *Graph, cfg EngineConfig) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("pathenum: engine needs a graph")
	}
	if err := validateOracleFor(cfg.Oracle, g); err != nil {
		return nil, err
	}
	if err := validateOracleFor(cfg.Options.Oracle, g); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	// The budget's effective limit is floored at the mandatory session
	// scratch (one set of O(|V|) buffers per worker) — the engine cannot
	// serve without it, so a budget below that floor runs at the floor
	// with every optional consumer (cache deposits, join build sides)
	// starved rather than failing construction.
	var budget *mem.Budget
	var scratchBytes int64
	if cfg.MemoryBudgetBytes > 0 {
		scratchBytes = int64(workers) * core.SessionScratchBytes(g.NumVertices())
		limit := cfg.MemoryBudgetBytes
		if limit < scratchBytes {
			limit = scratchBytes
		}
		budget = mem.New(limit)
		budget.Must(mem.ClassScratch, scratchBytes)
	}
	e := &Engine{
		cfg:          cfg,
		workers:      workers,
		budget:       budget,
		scratchBytes: scratchBytes,
		g:            g,
		oracle:       cfg.Oracle,
		defaults:     cfg.Options,
	}
	if cfg.FrontierCache >= 0 {
		// Budget split: the cache may hold at most half the budget, and
		// every resident byte is charged to the shared ledger too, so
		// scratch and build sides squeeze it further under pressure.
		e.cache = cache.NewBudgeted(cfg.FrontierCache, budget.Limit()/2, budget)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = NewMetricsRegistry()
	}
	e.metrics = newEngineMetrics(reg, e)
	if cfg.OracleLandmarks > 0 && e.oracle == nil {
		// Continuous pruning was requested but no oracle was supplied:
		// build the first one in the background too, so construction cost
		// never sits on the caller's startup path.
		e.scheduleRebuild(g)
	}
	return e, nil
}

// session checks a session out of the pool, bound to the captured (graph,
// oracle) view; callers return it with e.sessions.Put. Rebinding a session
// that served an earlier snapshot swaps two pointers (core.Session.Bind).
func (e *Engine) session(g *Graph, oracle DistanceOracle) *core.Session {
	if s, ok := e.sessions.Get().(*core.Session); ok {
		s.Bind(g, oracle)
		return s
	}
	return core.NewSessionBudget(g, oracle, e.budget)
}

// validateOracleFor rejects a version-aware oracle that does not match g.
func validateOracleFor(oracle DistanceOracle, g *Graph) error {
	if v, ok := oracle.(core.GraphValidator); ok {
		if err := v.ValidFor(g); err != nil {
			return fmt.Errorf("pathenum: oracle does not match engine graph: %w", err)
		}
	}
	return nil
}

// view captures a consistent (graph, oracle) pair.
func (e *Engine) view() (*Graph, DistanceOracle) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g, e.oracle
}

// Graph returns the engine's current graph.
func (e *Engine) Graph() *Graph {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g
}

// Epoch returns the epoch of the engine's current graph — the mutation
// count of its lineage (see graph.Versioned).
func (e *Engine) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.g.Epoch()
}

// UpdateGraph swaps the engine to g — typically a fresh Dynamic snapshot
// after insertions. Sessions rebind to the new graph at their next checkout
// (in-flight queries finish on the view they captured, and a graph with a
// different |V| makes them reallocate their scratch); cached frontiers are
// not swept —
// they invalidate lazily, by version, on their next lookup. An installed
// oracle that is version-aware and no longer valid for g — the
// engine-level one or the per-query default in EngineConfig.Options —
// is dropped: queries keep working without pruning, and SetOracle
// re-installs a rebuilt one. Safe for concurrent use with queries;
// UpdateGraph calls themselves should come from one writer (the owner
// of the Dynamic).
func (e *Engine) UpdateGraph(g *Graph) error {
	if g == nil {
		return fmt.Errorf("pathenum: UpdateGraph needs a graph")
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	// An externally supplied graph supersedes the engine-owned write
	// path: the Dynamic (and any unpublished insertions) no longer
	// describe the serving graph, so the next Insert re-wraps the new
	// one.
	e.dyn = nil
	e.pending = 0
	e.oldestPendingNs.Store(0)
	e.installGraph(g, time.Now())
	if e.cfg.OracleLandmarks > 0 {
		e.scheduleRebuild(g)
	}
	return nil
}

// installGraph swaps the serving view to g in one critical section. A
// version-aware oracle no longer valid for g — the engine-level one or the
// caller-owned per-query default — is dropped. In-flight queries finish on
// the view they captured; cached frontiers invalidate lazily, by version,
// on their next lookup. began is when the publish started — before the
// snapshot on the write path — and closes the pathenum_publish_seconds
// observation.
func (e *Engine) installGraph(g *Graph, began time.Time) {
	defer func() { e.metrics.publishDur.Observe(time.Since(began)) }()
	dropStale := func(o DistanceOracle) DistanceOracle {
		if v, ok := o.(core.GraphValidator); ok && v.ValidFor(g) != nil {
			return nil
		}
		return o
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.g = g
	e.oracle = dropStale(e.oracle)
	e.defaults.Oracle = dropStale(e.defaults.Oracle)
	// The mandatory scratch charge follows the serving graph's size (a
	// publish keeps |V|; UpdateGraph may not). If the graph grew past what
	// the configured budget anticipated, usage may exceed the limit
	// (Budget.Must semantics): the engine keeps serving with cache deposits
	// and join builds starved until the pressure clears.
	newScratch := int64(e.workers) * core.SessionScratchBytes(g.NumVertices())
	if e.budget != nil && newScratch != e.scratchBytes {
		e.budget.Release(mem.ClassScratch, e.scratchBytes)
		e.budget.Must(mem.ClassScratch, newScratch)
		e.scratchBytes = newScratch
	}
}

// Insert adds the directed edge (from, to) through the engine-owned write
// path, making streaming-while-updating a first-class scenario: the
// engine lazily wraps its current graph in a Dynamic on the first call,
// every applied insertion bumps the graph epoch, and a fresh immutable
// snapshot is published per EngineConfig.SnapshotEvery (every insert by
// default; see Flush). Publishing swaps the serving view exactly like
// UpdateGraph — in-flight queries and streams finish on the snapshot they
// captured, cached frontiers from earlier epochs invalidate lazily (a
// stale frontier handed to execution is rejected with ErrStaleEpoch, never
// silently used), and the oracle is rebuilt when
// EngineConfig.OracleLandmarks is set, dropped otherwise.
//
// Duplicate edges and self-loops are ignored and reported false, matching
// Dynamic.Insert. Insert is safe for concurrent use with queries, streams
// and other Inserts; writes are serialized internally.
func (e *Engine) Insert(from, to VertexID) (bool, error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.dyn == nil {
		e.dyn = NewDynamic(e.Graph())
	}
	added, err := e.dyn.Insert(from, to)
	if err != nil || !added {
		return added, err
	}
	e.metrics.inserts.Inc()
	if e.pending == 0 {
		e.oldestPendingNs.Store(time.Now().UnixNano())
	}
	e.pending++
	every := e.cfg.SnapshotEvery
	if every < 1 {
		every = 1
	}
	if e.pending >= every {
		return true, e.publishLocked()
	}
	return true, nil
}

// Flush publishes any insertions still buffered by SnapshotEvery
// amortization as a fresh serving snapshot. A no-op when nothing is
// pending.
func (e *Engine) Flush() error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.dyn == nil || e.pending == 0 {
		return nil
	}
	return e.publishLocked()
}

// PendingWrites reports insertions applied to the engine's Dynamic but
// not yet visible to queries (always 0 unless SnapshotEvery > 1).
func (e *Engine) PendingWrites() int {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.pending
}

// publishLocked chains the pending insertions onto the Dynamic's previous
// snapshot (Dynamic.Snapshot: the cost of the chunks they touch) and swaps
// the serving view immediately. Caller holds e.wmu. With OracleLandmarks set
// the oracle rebuild (two BFS passes per landmark) no longer sits on this
// path: the snapshot serves right away — a version-aware oracle for the
// previous graph is dropped by installGraph — and a single-flight
// background worker rebuilds the oracle for the new snapshot, installing
// it via the SetOracle path only if the snapshot is still the serving
// graph when the build finishes.
func (e *Engine) publishLocked() error {
	start := time.Now()
	snap := e.dyn.Snapshot()
	e.installGraph(snap, start)
	e.pending = 0
	if oldest := e.oldestPendingNs.Swap(0); oldest != 0 {
		e.metrics.publishLag.Observe(time.Since(time.Unix(0, oldest)))
	}
	e.metrics.publishes.Inc()
	if e.cfg.OracleLandmarks > 0 {
		e.scheduleRebuild(snap)
	}
	return nil
}

// scheduleRebuild hands snap to the background oracle rebuild worker,
// starting one if none is running. Only the newest target survives: a
// worker mid-build on an older snapshot picks this one up next and the
// superseded result is discarded at install time.
func (e *Engine) scheduleRebuild(snap *Graph) {
	e.rebuildMu.Lock()
	e.rebuildTarget = snap
	if e.degradedSince.Load() == 0 {
		e.degradedSince.Store(time.Now().UnixNano())
	}
	if !e.rebuildActive {
		e.rebuildActive = true
		e.rebuildDone = make(chan struct{})
		go e.rebuildLoop(e.rebuildDone)
	}
	e.rebuildMu.Unlock()
}

// rebuildLoop is the single-flight background oracle worker: it drains
// rebuildTarget — always building against the newest scheduled snapshot —
// and installs each finished oracle only while its snapshot is still the
// serving graph (pointer identity), so coalesced publishes never regress
// the oracle to an older epoch. The engine is degraded (serving unpruned)
// from the first schedule until an install lands on the serving graph.
func (e *Engine) rebuildLoop(done chan struct{}) {
	for {
		e.rebuildMu.Lock()
		target := e.rebuildTarget
		e.rebuildTarget = nil
		if target == nil {
			e.rebuildActive = false
			e.rebuildMu.Unlock()
			close(done)
			return
		}
		e.rebuildMu.Unlock()

		start := time.Now()
		oracle, err := landmark.Build(target, e.cfg.OracleLandmarks)
		if err != nil {
			// Build failures leave the engine unpruned but serving; the
			// next publish schedules a fresh attempt.
			continue
		}
		e.metrics.observeOracleRebuild(time.Since(start))
		e.mu.Lock()
		if e.g == target {
			e.oracle = oracle
			e.degradedSince.Store(0)
		}
		e.mu.Unlock()
	}
}

// WaitOracle blocks until the background oracle rebuild queue is idle (or
// ctx is done) — after it returns nil, the most recently published
// snapshot's oracle has been installed unless a newer publish raced in.
// Returns immediately when no rebuild is pending; tests and benchmarks
// use it to observe the asynchronous rebuild deterministically.
func (e *Engine) WaitOracle(ctx context.Context) error {
	for {
		e.rebuildMu.Lock()
		active, done := e.rebuildActive, e.rebuildDone
		e.rebuildMu.Unlock()
		if !active {
			return nil
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// OracleLag reports how long the engine has been serving without a fresh
// oracle while OracleLandmarks expects one — 0 when the oracle is
// current. A non-zero lag means queries run unpruned (correct, slower);
// it is exported as the pathenum_oracle_lag_seconds gauge and noted in
// the server's /readyz body.
func (e *Engine) OracleLag() time.Duration {
	since := e.degradedSince.Load()
	if since == 0 {
		return 0
	}
	return time.Since(time.Unix(0, since))
}

// Oracle returns the engine's currently installed distance oracle (nil
// when none is installed or the last graph update dropped a stale one).
func (e *Engine) Oracle() DistanceOracle {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.oracle
}

// SetOracle installs (or, with nil, removes) the engine's distance
// oracle. A version-aware oracle must match the engine's current graph.
func (e *Engine) SetOracle(oracle DistanceOracle) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := validateOracleFor(oracle, e.g); err != nil {
		return err
	}
	e.oracle = oracle
	if oracle != nil {
		e.degradedSince.Store(0)
	}
	return nil
}

// CacheStats snapshots the frontier-cache counters (the zero value when
// caching is disabled).
func (e *Engine) CacheStats() FrontierCacheStats {
	if e.cache == nil {
		return FrontierCacheStats{}
	}
	return e.cache.Stats()
}

// MemStats snapshots the engine's memory-budget ledger. The zero value
// (BudgetBytes 0) means the engine runs unbudgeted. UsedBytes is the sum
// of the per-class gauges and — join fallbacks aside — never exceeds
// BudgetBytes; a graph swap onto a larger graph can push the mandatory
// scratch charge past the configured budget (see
// EngineConfig.MemoryBudgetBytes), which shows up here as
// UsedBytes > BudgetBytes with cache and build starved to zero.
type MemStats struct {
	// BudgetBytes is the effective limit: the configured
	// MemoryBudgetBytes floored at the mandatory session scratch.
	BudgetBytes int64
	// UsedBytes is the bytes currently charged across all classes.
	UsedBytes int64
	// CacheBytes / ScratchBytes / BuildBytes split UsedBytes by consumer:
	// resident frontier-cache labelings, pooled per-session scratch, and
	// join build sides currently materialized.
	CacheBytes   int64
	ScratchBytes int64
	BuildBytes   int64
	// JoinFallbacks counts join-planned runs demoted to DFS because the
	// predicted build side did not fit the remaining budget.
	JoinFallbacks uint64
	// CacheRejected counts frontier deposits refused by the byte bound or
	// the shared ledger.
	CacheRejected uint64
}

// MemStats returns the engine's current memory accounting (see MemStats).
func (e *Engine) MemStats() MemStats {
	ms := MemStats{
		BudgetBytes:  e.budget.Limit(),
		UsedBytes:    e.budget.Used(),
		CacheBytes:   e.budget.ClassBytes(mem.ClassCache),
		ScratchBytes: e.budget.ClassBytes(mem.ClassScratch),
		BuildBytes:   e.budget.ClassBytes(mem.ClassBuild),
	}
	if e.metrics != nil {
		ms.JoinFallbacks = e.metrics.memFallbacks.Value()
	}
	if e.cache != nil {
		ms.CacheRejected = e.cache.Stats().Rejected
	}
	return ms
}

// Execute runs one query with the engine defaults (synchronously).
func (e *Engine) Execute(q Query) (*Result, error) {
	return e.ExecuteWith(context.Background(), q, Options{})
}

// ExecuteWith runs one query on a pooled session, merging per-call option
// overrides with the engine defaults (see MergeOptions) and observing ctx:
// cancellation or a context deadline stops enumeration early with
// Result.Completed == false. Like Engine.Stream — the two are callback and
// pull consumers of the same request spine — single queries are served
// from the frontier cache when it holds a matching labeling (a hub warmed
// by an earlier batch or query skips that side's search), and on a miss
// they build and deposit the shareable labeling when the endpoint passes
// the degree-based admission check (EngineConfig.CacheAdmitDegree), so hot
// hubs warm the cache on their own; below the threshold a miss costs only
// the query's own budget-bounded labeling. This is the entry point
// services should use — e.g. an HTTP handler passing the request context
// gets session buffer reuse, the engine oracle and client-disconnect
// cancellation in one call.
func (e *Engine) ExecuteWith(ctx context.Context, q Query, opts Options) (*Result, error) {
	e.metrics.requests[opExecute].Inc()
	start := time.Now()
	g, oracle := e.view()
	merged := e.MergeOptions(opts)
	// Time-to-first-path piggybacks on the caller's Emit when one is set
	// (the per-path seam already exists; one branch is added to it).
	// Emit-less runs only count paths — there is no delivery to time.
	var firstPath time.Duration
	if userEmit := merged.Emit; userEmit != nil {
		merged.Emit = func(p []VertexID) bool {
			if firstPath == 0 {
				firstPath = time.Since(start)
			}
			return userEmit(p)
		}
	}
	res, _, err := e.run(ctx, g, oracle, q, merged)
	e.metrics.finish(opExecute, res, err, start, firstPath)
	return res, err
}

// run is the per-query spine of ExecuteWith and the batch surfaces: the
// frontier sides from the cache, a pooled session bound to the captured
// (g, oracle) view, RunShared — counted in the pool gauges while it runs.
// The caller owns the metrics; use reports what the cache did for the two
// sides, passes included: frontier builds plus the sides left for the
// session to label itself.
func (e *Engine) run(ctx context.Context, g *Graph, oracle DistanceOracle, q Query, merged Options) (*Result, frontierUse, error) {
	defer e.track()()
	fwd, bwd, use := e.frontiers(ctx, g, oracle, q, merged)
	if fwd == nil {
		use.passes++
	}
	if bwd == nil {
		use.passes++
	}
	sess := e.session(g, oracle)
	defer e.sessions.Put(sess)
	res, err := sess.RunShared(ctx, q, merged, fwd, bwd)
	return res, use, err
}

// frontierUse is what frontiers did for one query's two sides: lookups
// answered without building (a wait on a concurrent build of the same
// side included), lookups that were not, and BFS passes run.
type frontierUse struct {
	hits, misses, passes int
}

// frontiers resolves the frontier-cache sides of a single query: consult
// both sides, and on a miss whose endpoint passes the degree-based
// admission check, build the shareable labeling and deposit it for later
// queries — single-flight, so concurrent misses on one hub (a batch
// sharing a source, a burst of /query traffic) wait for one build. The
// deposit is an investment, not a by-product: the query's own labeling is
// budget-bounded (it touches what the hop budget can use from both ends),
// while a shareable labeling is the endpoint's whole k-ball plus an O(|V|)
// array — and unpruned even with an oracle installed, because shareable
// labelings cannot bake in per-query pruning. The admission check bets
// that it amortizes across repeat queries on that hub; the other side of
// the query then runs restricted against it. A frontier the cache could
// not hold (cache.Fits: byte bound, shared budget) is not built at all.
// Opaque predicates (non-nil with a zero token) and invalid queries skip
// the cache, and no deposit is built for runs that will not enumerate: a
// context already done, a stale oracle (the run fails with ErrStaleEpoch)
// or an oracle lower bound proving the query infeasible (the run's
// zero-BFS fast path). engineOracle is the engine-level oracle captured
// with g.
func (e *Engine) frontiers(ctx context.Context, g *Graph, engineOracle DistanceOracle, q Query, opts Options) (fwd, bwd *core.Frontier, use frontierUse) {
	if e.cache == nil || (opts.Predicate != nil && opts.PredicateToken == core.PredicateNone) {
		return nil, nil, use
	}
	if q.Validate(g) != nil {
		return nil, nil, use // let the session report the error
	}
	build := ctx.Err() == nil
	oracle := opts.Oracle
	if oracle == nil {
		oracle = engineOracle
	}
	if build && oracle != nil {
		if v, ok := oracle.(core.GraphValidator); ok && v.ValidFor(g) != nil {
			build = false // the run fails on the stale oracle
		} else if lb := oracle.LowerBound(q.S, q.T); lb < 0 || int(lb) > q.K {
			build = false // infeasible: the run's fast path does zero BFS
		}
	}
	fwd = e.frontierSide(g, q.S, true, q.K, opts, build, &use)
	bwd = e.frontierSide(g, q.T, false, q.K, opts, build, &use)
	return fwd, bwd, use
}

// frontierSide resolves one side for frontiers: a plain lookup, or — when
// build is set and the endpoint's degree is admitted — a single-flight
// lookup-or-build that deposits what it builds.
func (e *Engine) frontierSide(g *Graph, origin VertexID, forward bool, k int, opts Options, build bool, use *frontierUse) *core.Frontier {
	key := cache.Key{Origin: origin, Forward: forward, Pred: opts.PredicateToken}
	var f *core.Frontier
	built := false
	if build && e.admitsDegree(g, origin, forward) {
		f, built = e.cache.GetOrBuild(key, k, g.Version(), func() *core.Frontier {
			if !e.cache.Fits(core.FrontierBytes(g.NumVertices())) {
				return nil
			}
			newFrontier := core.NewBackwardFrontier
			if forward {
				newFrontier = core.NewForwardFrontier
			}
			f, err := newFrontier(g, origin, k, opts.Predicate, opts.PredicateToken)
			if err != nil {
				return nil
			}
			return f
		})
	} else {
		f = e.cache.Get(key, k, g.Version())
	}
	if f == nil || built {
		use.misses++
	} else {
		use.hits++
	}
	if built {
		use.passes++
	}
	return f
}

// admitsDegree is the deposit admission check: the endpoint's degree in
// the frontier's direction reaches EngineConfig.CacheAdmitDegree (negative
// admits nothing).
func (e *Engine) admitsDegree(g *Graph, origin VertexID, forward bool) bool {
	admit := e.cfg.CacheAdmitDegree
	if admit == 0 {
		admit = DefaultCacheAdmitDegree
	}
	if admit < 0 {
		return false
	}
	deg := g.OutDegree(origin)
	if !forward {
		deg = g.InDegree(origin)
	}
	return deg >= admit
}

// MergeOptions overlays per-call overrides on the engine's default Options:
// any zero-valued field of opts falls back to the corresponding
// EngineConfig.Options field. Predicate and PredicateToken travel as a
// pair: a per-call Predicate keeps its own token (possibly zero = opaque),
// a nil per-call Predicate inherits both from the defaults.
//
// The flip side: a zero value can never override a non-zero default. A
// per-call Auto inherits the default Method (Auto is the zero value), a
// per-call Limit/Timeout of 0 cannot lift a default limit/timeout, and a
// nil Emit/Predicate/Oracle cannot clear a default one. Engines intended
// to serve unrestricted per-call traffic should keep those defaults zero
// and let callers opt in per call.
func (e *Engine) MergeOptions(opts Options) Options {
	e.mu.RLock()
	def := e.defaults
	e.mu.RUnlock()
	if opts.Method == Auto {
		opts.Method = def.Method
	}
	if opts.Tau == 0 {
		opts.Tau = def.Tau
	}
	if opts.Limit == 0 {
		opts.Limit = def.Limit
	}
	if opts.Timeout == 0 {
		opts.Timeout = def.Timeout
	}
	if opts.Emit == nil {
		opts.Emit = def.Emit
	}
	if opts.Predicate == nil {
		opts.Predicate = def.Predicate
		opts.PredicateToken = def.PredicateToken
	}
	if opts.Oracle == nil {
		opts.Oracle = def.Oracle
	}
	return opts
}

// PoolStats snapshots the engine's worker-pool occupancy: the configured
// worker count and the queries currently executing — through ExecuteWith,
// Engine.Stream and each unique query of a batch alike. Each query
// enumerates on one goroutine.
type PoolStats struct {
	// Workers is EngineConfig.Workers after defaulting.
	Workers int
	// InFlightQueries is the number of query executions currently
	// running, batch members included.
	InFlightQueries int
}

// Utilization reports InFlightQueries against the worker count as a
// 0..1+ ratio: single-query entry points are not queued behind the pool,
// so concurrent callers can push it past 1.
func (s PoolStats) Utilization() float64 {
	if s.Workers <= 0 {
		return 0
	}
	return float64(s.InFlightQueries) / float64(s.Workers)
}

// PoolStats returns the engine's current worker-pool occupancy gauges.
func (e *Engine) PoolStats() PoolStats {
	return PoolStats{Workers: e.workers, InFlightQueries: int(e.inFlight.Load())}
}

// track registers one in-flight query with the pool gauge; the returned
// release must run exactly once when the query settles.
func (e *Engine) track() func() {
	e.inFlight.Add(1)
	return func() { e.inFlight.Add(-1) }
}
