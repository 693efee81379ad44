package pathenum

import (
	"sync/atomic"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/mem"
	"pathenum/internal/obs"
)

// MetricsRegistry is the engine's metrics registry (see internal/obs):
// atomic counters, gauges and log-bucketed latency histograms, exported
// in Prometheus text exposition format via its Handler method. Every
// engine owns one — pass a shared registry in EngineConfig.Metrics to
// co-locate HTTP-layer series with the engine's, or let NewEngine create
// a private one and read it back with Engine.Metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry creates an empty registry for EngineConfig.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// metricOp indexes the request-op dimension of the pathenum_requests_total /
// pathenum_request_duration_seconds families: single queries (Execute,
// ExecuteWith), streams, and batches (every surface over Engine.batch:
// ExecuteBatch, StreamBatch, ExecuteAll, CountAll). Ints, not label
// strings, so the request path indexes fixed arrays instead of hashing map
// keys.
type metricOp int

const (
	opExecute metricOp = iota
	opStream
	opBatch
	numOps
)

// opNames are the "op" label values, aligned with the constants.
var opNames = [numOps]string{"execute", "stream", "batch"}

// metricStage indexes pathenum_stage_duration_seconds. bfs is the
// distance-labeling passes, index_build the light-index construction net
// of BFS, optimize the estimator + plan selection, enumerate the whole
// enumeration phase; join_build / join_probe split enumerate at the
// tuple-at-a-time join's seam (join-planned runs only).
type metricStage int

const (
	stageBFS metricStage = iota
	stageIndex
	stageOptimize
	stageEnumerate
	stageJoinBuild
	stageJoinProbe
	numStages
)

// stageNames are the "stage" label values, aligned with the constants.
var stageNames = [numStages]string{"bfs", "index_build", "optimize", "enumerate", "join_build", "join_probe"}

// engineMetrics holds the engine's pre-resolved metric handles in fixed
// arrays — the request path is array index + atomic, no map hashing. The
// func metrics (cache, pool, graph, write-path gauges) read their owning
// subsystem only at scrape time.
type engineMetrics struct {
	reg *obs.Registry

	requests [numOps]*obs.Counter
	errors   [numOps]*obs.Counter
	latency  [numOps]*obs.Histogram
	// firstPath is time-to-first-path, registered for the ops with a
	// per-path delivery seam (execute with Emit, stream); nil slots for
	// the batch surfaces.
	firstPath [numOps]*obs.Histogram

	stage [numStages]*obs.Histogram

	paths        *obs.Counter
	edges        *obs.Counter
	bfsVisited   *obs.Counter
	invalid      *obs.Counter
	incomplete   *obs.Counter
	batchQueries *obs.Counter

	// memFallbacks counts join-planned runs demoted to DFS by the memory
	// budget's build-side admission test (Result.MemFallback).
	memFallbacks *obs.Counter

	inserts   *obs.Counter
	publishes *obs.Counter
	// publishLag observes, at each snapshot publish, how long the oldest
	// buffered insertion waited for visibility (SnapshotEvery
	// amortization); the live counterpart is the
	// pathenum_insert_lag_seconds gauge.
	publishLag *obs.Histogram
	// publishDur times what a publish costs the write lock: the snapshot
	// plus the swap of the serving view (Insert/Flush), or the swap alone
	// (UpdateGraph).
	publishDur *obs.Histogram
	// oracleRebuilds / oracleRebuildDur count and time the background
	// oracle rebuilds (OracleLandmarks); the live degraded-window
	// counterpart is the pathenum_oracle_lag_seconds gauge.
	oracleRebuilds   *obs.Counter
	oracleRebuildDur *obs.Histogram

	// stageTick drives the deterministic 1-in-stageSample gate on the
	// stage histograms (see observeRun); the very first run is always
	// observed.
	stageTick atomic.Uint64

	// streamObs is the persistent core.RunObserver handed to every
	// stream's StreamConfig — a field, not a per-request closure, so the
	// stream request path allocates nothing for its metrics.
	streamObs streamObserver
}

// streamObserver adapts engineMetrics to the core.RunObserver seam for
// the stream surface.
type streamObserver struct{ m *engineMetrics }

// ObserveStream records one settled stream run. Terminal-error streams
// never reach this seam (core yields the error instead of a Result);
// they are counted by the stream's own yield loop.
func (o streamObserver) ObserveStream(res *core.Result, firstPath, total time.Duration) {
	m := o.m
	m.latency[opStream].Observe(total)
	if firstPath > 0 {
		m.firstPath[opStream].Observe(firstPath)
	}
	m.observeRun(res)
}

// stageSample is the run-sampling rate of the per-stage histograms: one
// run in stageSample folds its stage breakdown in, so four histogram
// observes leave the per-request path while quantiles still converge at
// any realistic request rate. The rate is exported as
// pathenum_stage_sample_rate for dashboards that want absolute stage
// counts. Latency, TTFP and every counter stay exact.
const stageSample = 8

// newEngineMetrics registers the engine's series on reg and wires the
// scrape-time func metrics to e. Registration is idempotent, so engines
// sharing a registry (unusual, but legal) share series.
func newEngineMetrics(reg *obs.Registry, e *Engine) *engineMetrics {
	m := &engineMetrics{reg: reg}
	m.streamObs = streamObserver{m: m}
	for op := metricOp(0); op < numOps; op++ {
		name := opNames[op]
		m.requests[op] = reg.Counter(obs.L("pathenum_requests_total", "op", name),
			"Requests accepted, by execution surface.")
		m.errors[op] = reg.Counter(obs.L("pathenum_request_errors_total", "op", name),
			"Requests that ended with a terminal error, by execution surface.")
		m.latency[op] = reg.Histogram(obs.L("pathenum_request_duration_seconds", "op", name),
			"End-to-end request latency, by execution surface.")
	}
	for _, op := range []metricOp{opExecute, opStream} {
		m.firstPath[op] = reg.Histogram(obs.L("pathenum_first_path_seconds", "op", opNames[op]),
			"Time from request start to the first delivered path.")
	}
	for st := metricStage(0); st < numStages; st++ {
		m.stage[st] = reg.Histogram(obs.L("pathenum_stage_duration_seconds", "stage", stageNames[st]),
			"Per-run execution stage latency.")
	}
	m.paths = reg.Counter("pathenum_paths_emitted_total", "Result paths enumerated across all runs.")
	m.edges = reg.Counter("pathenum_edges_accessed_total", "Neighbor-list entries scanned across all runs.")
	m.bfsVisited = reg.Counter("pathenum_bfs_visited_total",
		"Vertices labeled by per-query distance searches across all runs (sides served by a shared frontier add 0).")
	m.invalid = reg.Counter("pathenum_invalid_partials_total", "Partial results whose subtree produced no path.")
	m.incomplete = reg.Counter("pathenum_runs_incomplete_total",
		"Runs stopped early by limit, timeout or consumer cancellation.")
	m.batchQueries = reg.Counter("pathenum_batch_queries_total", "Queries submitted through the batch surfaces.")

	m.memFallbacks = reg.Counter("pathenum_mem_join_fallbacks_total",
		"Join-planned runs demoted to DFS because the predicted build side exceeded the memory budget.")
	m.inserts = reg.Counter("pathenum_inserts_total", "Edges applied through the engine write path.")
	m.publishes = reg.Counter("pathenum_snapshots_published_total",
		"Serving-snapshot publishes from the engine write path.")
	m.publishLag = reg.Histogram("pathenum_insert_publish_lag_seconds",
		"Age of the oldest buffered insertion at each snapshot publish.")
	m.publishDur = reg.Histogram("pathenum_publish_seconds",
		"Duration of a serving-graph publish: snapshot plus install (Insert, Flush) or install (UpdateGraph).")
	m.oracleRebuilds = reg.Counter("pathenum_oracle_rebuilds_total",
		"Background distance-oracle rebuilds completed.")
	m.oracleRebuildDur = reg.Histogram("pathenum_oracle_rebuild_seconds",
		"Background distance-oracle rebuild duration.")
	reg.GaugeFunc("pathenum_stage_sample_rate",
		"Run-sampling rate of the stage histograms (1 run in N is observed).",
		func() float64 { return stageSample })

	if e.cache != nil {
		cs := func(read func(FrontierCacheStats) float64) func() float64 {
			return func() float64 { return read(e.cache.Stats()) }
		}
		reg.CounterFunc("pathenum_frontier_cache_hits_total", "Frontier-cache lookup hits.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Hits) }))
		reg.CounterFunc("pathenum_frontier_cache_misses_total", "Frontier-cache lookup misses.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Misses) }))
		reg.CounterFunc("pathenum_frontier_cache_evictions_total", "Frontier-cache capacity evictions.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Evictions) }))
		reg.CounterFunc("pathenum_frontier_cache_invalidations_total", "Frontier-cache lazy epoch invalidations.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Invalidations) }))
		reg.GaugeFunc("pathenum_frontier_cache_entries", "Frontier-cache resident entries.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Entries) }))
		reg.GaugeFunc("pathenum_frontier_cache_capacity", "Frontier-cache entry bound.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Capacity) }))
		reg.GaugeFunc("pathenum_frontier_cache_bytes", "Frontier-cache resident bytes.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Bytes) }))
		reg.CounterFunc("pathenum_mem_deposits_rejected_total",
			"Frontier deposits refused by the cache byte bound or the memory budget.",
			cs(func(s FrontierCacheStats) float64 { return float64(s.Rejected) }))
	}
	if e.budget != nil {
		// The pathenum_mem_* family mirrors Engine.MemStats at scrape
		// time: the effective budget, total accounted bytes and the
		// per-class split. pathenum_mem_bytes staying under
		// pathenum_mem_budget_bytes is the invariant
		// TestEngineMemBudgetPathEquality checks after every query.
		reg.GaugeFunc("pathenum_mem_budget_bytes",
			"Effective memory budget (configured MemoryBudgetBytes floored at the session scratch requirement).",
			func() float64 { return float64(e.budget.Limit()) })
		reg.GaugeFunc("pathenum_mem_bytes", "Bytes currently accounted against the memory budget.",
			func() float64 { return float64(e.budget.Used()) })
		reg.GaugeFunc("pathenum_mem_cache_bytes", "Budgeted bytes held by frontier-cache entries.",
			func() float64 { return float64(e.budget.ClassBytes(mem.ClassCache)) })
		reg.GaugeFunc("pathenum_mem_scratch_bytes", "Budgeted bytes held by pooled per-session scratch.",
			func() float64 { return float64(e.budget.ClassBytes(mem.ClassScratch)) })
		reg.GaugeFunc("pathenum_mem_build_bytes", "Budgeted bytes held by in-flight join build sides.",
			func() float64 { return float64(e.budget.ClassBytes(mem.ClassBuild)) })
	}
	reg.GaugeFunc("pathenum_pool_workers", "Configured query-executor workers.",
		func() float64 { return float64(e.workers) })
	reg.GaugeFunc("pathenum_pool_inflight_queries", "Single-query executions currently running.",
		func() float64 { return float64(e.inFlight.Load()) })
	reg.GaugeFunc("pathenum_pool_utilization", "In-flight load over the worker count (0..1+).",
		func() float64 { return e.PoolStats().Utilization() })
	reg.GaugeFunc("pathenum_graph_epoch", "Mutation count of the serving graph's lineage.",
		func() float64 { return float64(e.Epoch()) })
	reg.GaugeFunc("pathenum_graph_vertices", "Vertices in the serving graph.",
		func() float64 { return float64(e.Graph().NumVertices()) })
	reg.GaugeFunc("pathenum_graph_edges", "Edges in the serving graph.",
		func() float64 { return float64(e.Graph().NumEdges()) })
	reg.GaugeFunc("pathenum_pending_writes", "Insertions applied but not yet published to queries.",
		func() float64 { return float64(e.PendingWrites()) })
	reg.GaugeFunc("pathenum_insert_lag_seconds",
		"Age of the oldest insertion awaiting a snapshot publish (0 when none).",
		func() float64 {
			oldest := e.oldestPendingNs.Load()
			if oldest == 0 {
				return 0
			}
			return time.Since(time.Unix(0, oldest)).Seconds()
		})
	reg.GaugeFunc("pathenum_oracle_lag_seconds",
		"How long the engine has served without a fresh oracle while a background rebuild is owed (0 when current).",
		func() float64 { return e.OracleLag().Seconds() })
	return m
}

// observeOracleRebuild records one completed background oracle rebuild.
func (m *engineMetrics) observeOracleRebuild(d time.Duration) {
	m.oracleRebuilds.Inc()
	m.oracleRebuildDur.Observe(d)
}

// finish records one settled request: end-to-end latency, the error/
// incomplete outcome, time-to-first-path when the op delivered one
// (firstPath > 0), and the per-stage breakdown from the run's own
// timings. res may be nil (terminal error before a run existed).
func (m *engineMetrics) finish(op metricOp, res *core.Result, err error, start time.Time, firstPath time.Duration) {
	m.latency[op].Observe(time.Since(start))
	if err != nil {
		m.errors[op].Inc()
	}
	if firstPath > 0 {
		if h := m.firstPath[op]; h != nil {
			h.Observe(firstPath)
		}
	}
	m.observeRun(res)
}

// observeRun folds one run's Result into the enumeration counters
// (exact) and, for one run in stageSample, the stage histograms. The
// run already collected its own timings, so this is pure post-hoc
// accounting — the core hot loops see no clocks beyond the ones they
// always carried.
func (m *engineMetrics) observeRun(res *core.Result) {
	if res == nil {
		return
	}
	if m.stageTick.Add(1)&(stageSample-1) == 1 { // run 1, 9, 17, ...
		t := res.Timings
		m.stage[stageBFS].Observe(t.BFS)
		m.stage[stageIndex].Observe(t.Build - t.BFS)
		m.stage[stageOptimize].Observe(t.Optimize)
		m.stage[stageEnumerate].Observe(t.Enumerate)
		if res.Plan.Method == core.MethodJoin {
			m.stage[stageJoinBuild].Observe(res.JoinStats.BuildTime)
			m.stage[stageJoinProbe].Observe(res.JoinStats.ProbeTime)
		}
	}
	m.paths.Add(res.Counters.Results)
	m.edges.Add(res.Counters.EdgesAccessed)
	m.bfsVisited.Add(uint64(res.BFSVisited))
	m.invalid.Add(res.Counters.InvalidPartials)
	if res.MemFallback {
		m.memFallbacks.Inc()
	}
	if !res.Completed {
		m.incomplete.Inc()
	}
}

// Metrics returns the engine's metrics registry — the one passed in
// EngineConfig.Metrics, or the private registry NewEngine created. Mount
// Metrics().Handler() at GET /metrics to expose it.
func (e *Engine) Metrics() *MetricsRegistry { return e.metrics.reg }
