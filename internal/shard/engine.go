package shard

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"pathenum"
	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// Config configures a sharded engine.
type Config struct {
	// Strategy selects vertex ownership (default Hash).
	Strategy Strategy
	// HubFrac is the DegreeAware hub fraction (0 = DefaultHubFrac).
	HubFrac float64
	// Engine is the per-constituent engine configuration. The metrics
	// registry is shared across every constituent (one scrape covers the
	// whole sharded engine); SnapshotEvery is forced to 1 so the
	// per-shard images and the full image publish in lockstep — phase
	// consistency of a routed query depends on it. Oracle, when set, must
	// match the full graph and serves the full-image constituent only;
	// with OracleLandmarks each shard builds its own oracle in the
	// background. MemoryBudgetBytes names the budget for the whole
	// sharded engine: at shards > 1 it is split evenly across the P
	// sub-engines plus the full-image fallback, each constituent flooring
	// its share at its own mandatory session scratch.
	Engine pathenum.EngineConfig
}

// Engine executes hop-constrained s-t path queries over an edge-cut
// partitioned graph behind the same surface as pathenum.Engine — Stream,
// Execute/ExecuteWith, ExecuteBatch/StreamBatch, Insert/Flush — so the
// HTTP layer serves either through one interface.
//
// Routing: a query whose endpoints are co-owned by shard A and provably
// confined there (A has no out-cut or no in-cut edges) delegates to shard
// A's untouched engine spine — at P=1 every query takes this path, so the
// sharding layer's overhead is one classification. A cross-shard query
// (s in A, t in B) runs the boundary join for the single-crossing class
// A⁺B⁺ (see crossJoin) and, unless the cut structure proves the class
// exhaustive, a remainder phase: full-image enumeration filtered to the
// owner shapes the join did not cover — paths crossing two or more
// boundaries fall back to single-image execution, the documented limit.
// Both phases of a routed query run on graphs captured under one read
// lock, and Insert updates every constituent under the matching write
// lock, so a query never sees the shards at mixed epochs.
//
// Versioning: the full-image constituent applies every insert, so its
// epoch is the composite mutation count across shards — Epoch() reports
// it, and version-enforced structures (frontiers, oracles) keep their
// ErrStaleEpoch semantics per constituent engine.
type Engine struct {
	p          int
	subWorkers int
	owners     []int32
	subs       []*pathenum.Engine
	// fallback serves the full image: the remainder phases, constrained
	// requests, and the write-path dedup verdict. At P=1 it IS subs[0] —
	// no duplicate image.
	fallback *pathenum.Engine
	reg      *pathenum.MetricsRegistry
	m        *shardMetrics

	// mu guards the cut structures and spans constituent writes: Insert
	// holds it exclusively across the fallback + sub-engine updates, and
	// capture reads all constituent graphs under RLock, so a captured
	// view is mutually consistent.
	mu       sync.RWMutex
	cuts     [][][]graph.Edge
	cutCount [][]int
	boundary [][]map[graph.VertexID]struct{}

	// Phased (two-phase) executions run engine-less on captured graphs;
	// these gauges track them so PoolStats covers every in-flight query.
	inFlight atomic.Int64
	inShards atomic.Int64
}

// New builds a sharded engine: g is split into shards edge-cut
// sub-graphs (plus, at shards > 1, a full-image constituent for the
// remainder/constrained/write paths), each behind its own pathenum.Engine
// with per-shard worker pools sharing one metrics registry.
func New(g *pathenum.Graph, shards int, cfg Config) (*Engine, error) {
	part, err := NewPartition(g, shards, cfg.Strategy, cfg.HubFrac)
	if err != nil {
		return nil, err
	}
	ecfg := cfg.Engine
	reg := ecfg.Metrics
	if reg == nil {
		reg = pathenum.NewMetricsRegistry()
	}
	ecfg.Metrics = reg
	// Lockstep publishing: a routed query's phases assume the sub-images
	// and the full image describe the same edge set.
	ecfg.SnapshotEvery = 1
	// A memory budget configured for the sharded engine bounds the whole
	// process, so it is split evenly across the constituents that
	// actually hold memory: the P sub-engines plus the full-image
	// fallback (at shards == 1 the single engine IS the fallback and
	// keeps the whole budget). Each constituent floors its share at its
	// own session-scratch requirement, so a pathologically small budget
	// still constructs — with caches and join builds starved, not broken.
	if shards > 1 && ecfg.MemoryBudgetBytes > 0 {
		ecfg.MemoryBudgetBytes /= int64(shards + 1)
	}
	subWorkers := ecfg.Workers
	if subWorkers <= 0 {
		subWorkers = 4
	}

	e := &Engine{
		p:          shards,
		subWorkers: subWorkers,
		owners:     part.Owners,
		reg:        reg,
		cuts:       part.Cuts,
	}
	// Func-gauge registration keeps the first closure, and every
	// constituent registers the pool series for its own pool: claim them
	// for the aggregate first, so a scrape (and /stats) reports the
	// occupancy /readyz sheds on, not one constituent's.
	registerPoolGauges(reg, e)
	if shards == 1 {
		eng, err := pathenum.NewEngine(g, ecfg)
		if err != nil {
			return nil, err
		}
		e.subs = []*pathenum.Engine{eng}
		e.fallback = eng
	} else {
		// The full-image constituent registers first so the shared
		// registry's graph gauges (vertices/edges/epoch) describe the
		// full image, not a sub-graph — func-gauge registration keeps the
		// first closure.
		fb, err := pathenum.NewEngine(g, ecfg)
		if err != nil {
			return nil, err
		}
		e.fallback = fb
		subCfg := ecfg
		// A full-graph oracle is version-bound to the full image; the
		// sub-engines build their own (OracleLandmarks) or run unpruned.
		subCfg.Oracle = nil
		subCfg.Options.Oracle = nil
		e.subs = make([]*pathenum.Engine, shards)
		for i, sub := range part.Subs {
			eng, err := pathenum.NewEngine(sub, subCfg)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			e.subs[i] = eng
		}
	}
	e.cutCount = make([][]int, shards)
	e.boundary = make([][]map[graph.VertexID]struct{}, shards)
	for a := 0; a < shards; a++ {
		e.cutCount[a] = make([]int, shards)
		e.boundary[a] = make([]map[graph.VertexID]struct{}, shards)
		for b := 0; b < shards; b++ {
			e.boundary[a][b] = make(map[graph.VertexID]struct{})
			for _, edge := range e.cuts[a][b] {
				e.boundary[a][b][edge.To] = struct{}{}
			}
			e.cutCount[a][b] = len(e.cuts[a][b])
		}
	}
	e.m = newShardMetrics(reg, e)
	return e, nil
}

// Shards returns the shard count P.
func (e *Engine) Shards() int { return e.p }

// Owner returns v's owning shard.
func (e *Engine) Owner(v pathenum.VertexID) int { return int(e.owners[v]) }

// CutEdges returns the current number of boundary edges.
func (e *Engine) CutEdges() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for a := range e.cutCount {
		for _, c := range e.cutCount[a] {
			n += c
		}
	}
	return n
}

// Graph returns the full serving image.
func (e *Engine) Graph() *pathenum.Graph { return e.fallback.Graph() }

// Epoch returns the composite epoch: the full-image constituent applies
// every insert, so its epoch counts all mutations across shards.
func (e *Engine) Epoch() uint64 { return e.fallback.Epoch() }

// ShardEpochs returns each shard constituent's own epoch.
func (e *Engine) ShardEpochs() []uint64 {
	out := make([]uint64, e.p)
	for i, s := range e.subs {
		out[i] = s.Epoch()
	}
	return out
}

// PendingWrites reports insertions not yet published (always 0: the
// sharded engine forces lockstep publishing).
func (e *Engine) PendingWrites() int { return e.fallback.PendingWrites() }

// Metrics returns the registry shared by every constituent.
func (e *Engine) Metrics() *pathenum.MetricsRegistry { return e.reg }

// OracleLag reports the longest degraded window across constituents.
func (e *Engine) OracleLag() time.Duration {
	lag := e.fallback.OracleLag()
	for _, s := range e.subs {
		if l := s.OracleLag(); l > lag {
			lag = l
		}
	}
	return lag
}

// PoolStats aggregates worker-pool occupancy across the per-shard pools
// plus the phased executions the sharding layer runs itself.
func (e *Engine) PoolStats() pathenum.PoolStats {
	ps := pathenum.PoolStats{Workers: e.subWorkers * e.p}
	for _, s := range e.subs {
		sp := s.PoolStats()
		ps.InFlightQueries += sp.InFlightQueries
		ps.InFlightShards += sp.InFlightShards
	}
	if e.fallback != e.subs[0] {
		fp := e.fallback.PoolStats()
		ps.InFlightQueries += fp.InFlightQueries
		ps.InFlightShards += fp.InFlightShards
	}
	ps.InFlightQueries += int(e.inFlight.Load())
	ps.InFlightShards += int(e.inShards.Load())
	return ps
}

// totalWorkers is the fan-out bound for the sharding layer's own
// dispatch loops.
func (e *Engine) totalWorkers() int { return e.subWorkers * e.p }

// track mirrors pathenum.Engine.track for phased executions.
func (e *Engine) track(parallelism int) func() {
	e.inFlight.Add(1)
	var shards int64
	if parallelism > 1 {
		shards = int64(parallelism)
		e.inShards.Add(shards)
	}
	return func() {
		e.inFlight.Add(-1)
		if shards != 0 {
			e.inShards.Add(-shards)
		}
	}
}

// Insert routes the edge to its owning structure: the full image always
// applies it (and its dedup verdict gates the rest), a co-owned edge also
// lands in the owner's sub-engine, and a cut edge appends to the ordered
// pair's cut list and boundary set. The whole update holds the engine
// write lock, so captures see every constituent at the same edge set.
func (e *Engine) Insert(from, to pathenum.VertexID) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	added, err := e.fallback.Insert(from, to)
	if err != nil || !added {
		return added, err
	}
	a, b := int(e.owners[from]), int(e.owners[to])
	if a == b {
		if e.subs[a] != e.fallback {
			if _, serr := e.subs[a].Insert(from, to); serr != nil {
				return true, fmt.Errorf("shard %d insert: %w", a, serr)
			}
		}
		return true, nil
	}
	e.cuts[a][b] = append(e.cuts[a][b], graph.Edge{From: from, To: to})
	e.cutCount[a][b]++
	e.boundary[a][b][to] = struct{}{}
	return true, nil
}

// Flush forwards to every constituent (a no-op under lockstep
// publishing, kept for surface parity).
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.fallback.Flush(); err != nil {
		return err
	}
	for _, s := range e.subs {
		if s == e.fallback {
			continue
		}
		if err := s.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// routeKind classifies a query's execution path.
type routeKind int

const (
	routeIntra  routeKind = iota // endpoints co-owned
	routeCross                   // endpoints in different shards
	routeSingle                  // constrained: full-image engine wholesale
)

type route struct {
	kind routeKind
	a, b int
	// fallbackNeeded reports that the shard-local phase is not provably
	// exhaustive and a filtered full-image remainder phase must run.
	fallbackNeeded bool
}

// view is one consistent capture of the partitioned image: all
// constituent graphs plus the cut structures, taken under one read lock
// opposite Insert's write lock.
type view struct {
	full     *pathenum.Graph
	subs     []*pathenum.Graph
	cuts     [][][]graph.Edge
	cutCount [][]int
}

func (e *Engine) capture() *view {
	e.mu.RLock()
	defer e.mu.RUnlock()
	v := &view{
		full:     e.fallback.Graph(),
		subs:     make([]*pathenum.Graph, e.p),
		cuts:     make([][][]graph.Edge, e.p),
		cutCount: make([][]int, e.p),
	}
	for i, s := range e.subs {
		v.subs[i] = s.Graph()
	}
	for a := 0; a < e.p; a++ {
		v.cuts[a] = make([][]graph.Edge, e.p)
		copy(v.cuts[a], e.cuts[a])
		v.cutCount[a] = make([]int, e.p)
		copy(v.cutCount[a], e.cutCount[a])
	}
	return v
}

// classify validates q against the full image and routes it. The
// remainder-emptiness proofs: an intra-A path can only leave A through an
// out-cut edge and return through an in-cut edge, so either count being
// zero confines it; a cross A→B path has owner shape A⁺B⁺ whenever every
// A out-cut edge lands in B (the path cannot reach a third shard first)
// and B has no out-cut edges (once in B it stays).
func (e *Engine) classify(v *view, q core.Query, constrained bool) (route, error) {
	if err := q.Validate(v.full); err != nil {
		return route{}, err
	}
	if constrained {
		return route{kind: routeSingle}, nil
	}
	a, b := int(e.owners[q.S]), int(e.owners[q.T])
	if a == b {
		out, in := 0, 0
		for x := 0; x < e.p; x++ {
			out += v.cutCount[a][x]
			in += v.cutCount[x][a]
		}
		return route{kind: routeIntra, a: a, b: a, fallbackNeeded: out > 0 && in > 0}, nil
	}
	outOnlyToB := true
	for x := 0; x < e.p; x++ {
		if x != b && v.cutCount[a][x] > 0 {
			outOnlyToB = false
			break
		}
	}
	bOut := 0
	for x := 0; x < e.p; x++ {
		bOut += v.cutCount[b][x]
	}
	return route{kind: routeCross, a: a, b: b, fallbackNeeded: !(outOnlyToB && bOut == 0)}, nil
}

// optionsOf lowers a Request to executor options (Emit stays nil).
func optionsOf(req pathenum.Request) pathenum.Options {
	return pathenum.Options{
		Method:         req.Method,
		Tau:            req.Tau,
		Limit:          req.Limit,
		Timeout:        req.Timeout,
		Predicate:      req.Predicate,
		PredicateToken: req.PredicateToken,
		Oracle:         req.Oracle,
		Parallelism:    req.Parallelism,
	}
}

// requestFrom raises (q, opts) to the streaming surface (Emit handled by
// the caller).
func requestFrom(q core.Query, opts pathenum.Options) pathenum.Request {
	return pathenum.Request{
		S: q.S, T: q.T, K: q.K,
		Method:         opts.Method,
		Tau:            opts.Tau,
		Limit:          opts.Limit,
		Timeout:        opts.Timeout,
		Predicate:      opts.Predicate,
		PredicateToken: opts.PredicateToken,
		Oracle:         opts.Oracle,
		Parallelism:    opts.Parallelism,
	}
}

// oracleFor returns o unless it is version-aware and stale for g.
func oracleFor(o pathenum.DistanceOracle, g *pathenum.Graph) pathenum.DistanceOracle {
	if o == nil {
		return nil
	}
	if v, ok := o.(core.GraphValidator); ok && v.ValidFor(g) != nil {
		return nil
	}
	return o
}

// Stream executes req against the partitioned image with the same
// iteration contract as pathenum.Engine.Stream: fresh paths or one
// terminal error, OnResult fired exactly once after the run settles,
// the view captured at the first pull.
func (e *Engine) Stream(ctx context.Context, req pathenum.Request) iter.Seq2[pathenum.Path, error] {
	return func(yield func(pathenum.Path, error) bool) {
		v := e.capture()
		constrained := req.Accumulate != nil || req.Sequence != nil
		r, err := e.classify(v, req.Query(), constrained)
		if err != nil {
			yield(nil, err)
			return
		}
		e.m.observe(r)
		for p, serr := range e.streamRouted(ctx, v, r, req) {
			if !yield(p, serr) {
				return
			}
		}
	}
}

// streamRouted dispatches a classified request: wholesale delegation for
// the single-engine routes, the two-phase runner otherwise.
func (e *Engine) streamRouted(ctx context.Context, v *view, r route, req pathenum.Request) iter.Seq2[pathenum.Path, error] {
	switch {
	case r.kind == routeSingle:
		return e.fallback.Stream(ctx, req)
	case r.kind == routeIntra && !r.fallbackNeeded:
		// The untouched engine spine: pooled sessions, frontier cache,
		// shard-local oracle. At P=1 this is every query.
		return e.subs[r.a].Stream(ctx, req)
	default:
		return func(yield func(pathenum.Path, error) bool) {
			e.runPhased(ctx, v, r, req, yield)
		}
	}
}

// runPhased executes a routed query in two phases against the captured
// view: the shard-local phase (sub-image enumeration for intra, the
// boundary join for cross), then — when the cut structure does not prove
// the first phase exhaustive — the filtered full-image remainder. Both
// phases run engine-less on the captured graphs, so a concurrent Insert
// cannot desynchronize them; Limit, Timeout and Completed span the
// phases as one run, and the combined Result reaches req.OnResult once.
func (e *Engine) runPhased(ctx context.Context, v *view, r route, req pathenum.Request, yield func(pathenum.Path, error) bool) {
	merged := e.fallback.MergeOptions(optionsOf(req))
	merged.Emit = nil
	defer e.track(merged.Parallelism)()
	start := time.Now()
	var deadline time.Time
	if merged.Timeout > 0 {
		deadline = start.Add(merged.Timeout)
	}

	combined := &core.Result{Query: req.Query(), Completed: true}
	var emitted uint64
	stopped := false
	if req.OnResult != nil {
		defer func() { req.OnResult(combined) }()
	}
	defer func() {
		combined.Counters.Results = emitted
		if stopped || ctx.Err() != nil {
			combined.Completed = false
		}
	}()

	deliver := func(p pathenum.Path) bool {
		if combined.Timings.FirstPath == 0 {
			combined.Timings.FirstPath = time.Since(start)
		}
		emitted++
		if !yield(p, nil) {
			stopped = true
			return false
		}
		if merged.Limit > 0 && emitted >= merged.Limit {
			stopped = true
			return false
		}
		return true
	}
	remaining := func() (time.Duration, bool) {
		if deadline.IsZero() {
			return 0, true
		}
		d := time.Until(deadline)
		return d, d > 0
	}
	mergeRes := func(pr *pathenum.Result) {
		if pr == nil {
			return
		}
		combined.Counters.EdgesAccessed += pr.Counters.EdgesAccessed
		combined.Counters.InvalidPartials += pr.Counters.InvalidPartials
		combined.Timings.BFS += pr.Timings.BFS
		combined.Timings.Build += pr.Timings.Build
		combined.Timings.Optimize += pr.Timings.Optimize
		combined.Timings.Enumerate += pr.Timings.Enumerate
		combined.IndexEdges += pr.IndexEdges
		combined.IndexVertices += pr.IndexVertices
		combined.IndexBytes += pr.IndexBytes
		combined.BFSVisited += pr.BFSVisited
		if !pr.Completed {
			combined.Completed = false
		}
	}

	switch r.kind {
	case routeIntra:
		// Phase A: all paths confined to the owner's sub-image. Every
		// emitted path is delivered, so the outer limit passes through.
		d, ok := remaining()
		if !ok {
			combined.Completed = false
			return
		}
		phaseReq := requestFrom(req.Query(), merged)
		phaseReq.Oracle = nil // merged oracle is version-bound to the full image
		phaseReq.Timeout = d
		phaseReq.Buffer = req.Buffer
		var pres *pathenum.Result
		phaseReq.OnResult = func(r *pathenum.Result) { pres = r }
		for p, serr := range pathenum.Stream(ctx, v.subs[r.a], phaseReq) {
			if serr != nil {
				combined.Completed = false
				yield(nil, serr)
				return
			}
			if !deliver(p) {
				break
			}
		}
		if pres != nil {
			combined.Plan = pres.Plan
			mergeRes(pres)
		}
	case routeCross:
		// Phase A: the boundary join over the single-crossing class.
		var slab core.PathSlab
		cj := &crossJoin{
			gA: v.subs[r.a], gB: v.subs[r.b], cuts: v.cuts[r.a][r.b],
			s: req.S, t: req.T, k: req.K,
			pred: merged.Predicate, ctx: ctx, deadline: deadline,
			emit: func(p []graph.VertexID) bool { return deliver(slab.Copy(p)) },
		}
		cj.run()
		combined.Plan.Method = core.MethodJoin
		combined.JoinStats = cj.stats
		combined.Counters.EdgesAccessed += cj.counters.EdgesAccessed
		combined.Timings.Enumerate += cj.stats.BuildTime + cj.stats.ProbeTime
		if cj.stopped && !stopped {
			combined.Completed = false // ctx or deadline ended the join early
			return
		}
	}
	if stopped || !r.fallbackNeeded {
		return
	}

	// Phase B: the remainder — full-image enumeration filtered to the
	// owner shapes phase A did not cover. Unlimited inside (the filter
	// drops covered shapes before they count); the outer limit stops the
	// stream through deliver.
	d, ok := remaining()
	if !ok {
		combined.Completed = false
		return
	}
	e.m.fallbackRuns.Inc()
	fullReq := requestFrom(req.Query(), merged)
	fullReq.Limit = 0
	fullReq.Timeout = d
	fullReq.Buffer = req.Buffer
	fullReq.Oracle = oracleFor(merged.Oracle, v.full)
	if fullReq.Oracle == nil {
		fullReq.Oracle = oracleFor(e.fallback.Oracle(), v.full)
	}
	var fres *pathenum.Result
	fullReq.OnResult = func(r *pathenum.Result) { fres = r }
	keep := e.remainderFilter(r)
	for p, serr := range pathenum.Stream(ctx, v.full, fullReq) {
		if serr != nil {
			combined.Completed = false
			yield(nil, serr)
			return
		}
		if !keep(p) {
			continue
		}
		if !deliver(p) {
			break
		}
	}
	mergeRes(fres)
}

// remainderFilter returns the phase-B admission predicate: keep exactly
// the paths whose owner shape phase A did not enumerate. Intra-A covered
// A⁺ (every vertex owned by A); cross A→B covered A⁺B⁺ (a single
// ownership transition on a cut edge). Disjoint by construction, so the
// two phases emit every path exactly once.
func (e *Engine) remainderFilter(r route) func(pathenum.Path) bool {
	if r.kind == routeIntra {
		a := int32(r.a)
		return func(p pathenum.Path) bool {
			for _, x := range p {
				if e.owners[x] != a {
					return true
				}
			}
			return false
		}
	}
	a, b := int32(r.a), int32(r.b)
	return func(p pathenum.Path) bool {
		i := 0
		for i < len(p) && e.owners[p[i]] == a {
			i++
		}
		for _, x := range p[i:] {
			if e.owners[x] != b {
				return true
			}
		}
		return false
	}
}

// Execute runs one query with the constituent defaults.
func (e *Engine) Execute(q pathenum.Query) (*pathenum.Result, error) {
	return e.ExecuteWith(context.Background(), q, pathenum.Options{})
}

// ExecuteWith is the callback twin of Stream: confined intra queries
// delegate straight to the owner shard's ExecuteWith (pooled session,
// reused emit buffer — the untouched spine), everything else consumes
// the phased stream, feeding opts.Emit with the fresh path copies the
// stream yields.
func (e *Engine) ExecuteWith(ctx context.Context, q pathenum.Query, opts pathenum.Options) (*pathenum.Result, error) {
	v := e.capture()
	r, err := e.classify(v, q, false)
	if err != nil {
		return nil, err
	}
	e.m.observe(r)
	if r.kind == routeIntra && !r.fallbackNeeded {
		return e.subs[r.a].ExecuteWith(ctx, q, opts)
	}
	req := requestFrom(q, opts)
	var res *pathenum.Result
	req.OnResult = func(r *pathenum.Result) { res = r }
	emit := opts.Emit
	for p, serr := range e.streamRouted(ctx, v, r, req) {
		if serr != nil {
			return nil, serr
		}
		if emit != nil && !emit(p) {
			break
		}
	}
	return res, nil
}

// ExecuteAll runs the queries across the shard pools in input order.
func (e *Engine) ExecuteAll(queries []pathenum.Query) ([]*pathenum.Result, []error) {
	return e.ExecuteAllContext(context.Background(), queries, pathenum.Options{})
}

// ExecuteAllContext mirrors pathenum.Engine.ExecuteAllContext: an
// independent fan-out bounded by the aggregate worker count, fail-fast
// on ctx.
func (e *Engine) ExecuteAllContext(ctx context.Context, queries []pathenum.Query, opts pathenum.Options) ([]*pathenum.Result, []error) {
	results := make([]*pathenum.Result, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, e.totalWorkers())
dispatch:
	for i, q := range queries {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < len(queries); j++ {
				errs[j] = ctx.Err()
			}
			break dispatch
		}
		wg.Add(1)
		go func(i int, q pathenum.Query) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = e.ExecuteWith(ctx, q, opts)
		}(i, q)
	}
	wg.Wait()
	return results, errs
}

// ExecuteBatch routes a batch by shard: queries confined to one shard
// run through that shard's ExecuteBatch (dedup, endpoint order, the
// shard's frontier cache) as one sub-batch, concurrently across shards;
// the boundary-involved remainder fans out through the phased path. The
// merged stats sum the per-shard reports, with routed singles accounted
// as naive executions (two passes each).
func (e *Engine) ExecuteBatch(ctx context.Context, queries []pathenum.Query, opts pathenum.Options) ([]*pathenum.Result, []error, *pathenum.BatchStats) {
	start := time.Now()
	results := make([]*pathenum.Result, len(queries))
	errs := make([]error, len(queries))
	stats := &pathenum.BatchStats{Queries: len(queries)}
	v := e.capture()
	perShard := make(map[int][]int)
	var singles []int
	for i, q := range queries {
		r, err := e.classify(v, q, false)
		if err != nil {
			errs[i] = err
			stats.Invalid++
			continue
		}
		e.m.observe(r)
		if r.kind == routeIntra && !r.fallbackNeeded {
			perShard[r.a] = append(perShard[r.a], i)
		} else {
			singles = append(singles, i)
		}
	}

	var (
		wg sync.WaitGroup
		sm sync.Mutex // guards stats merging
	)
	for s, idxs := range perShard {
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			qs := make([]pathenum.Query, len(idxs))
			for j, i := range idxs {
				qs[j] = queries[i]
			}
			res, es, st := e.subs[s].ExecuteBatch(ctx, qs, opts)
			for j, i := range idxs {
				results[i], errs[i] = res[j], es[j]
			}
			if st != nil {
				sm.Lock()
				addBatchStats(stats, st)
				sm.Unlock()
			}
		}(s, idxs)
	}
	sem := make(chan struct{}, e.totalWorkers())
	for _, i := range singles {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = e.ExecuteWith(ctx, queries[i], opts)
		}(i)
	}
	wg.Wait()
	stats.Unique += len(singles)
	stats.BFSPassesNaive += 2 * len(singles)
	stats.BFSPassesRun += 2 * len(singles)
	stats.Elapsed = time.Since(start)
	return results, errs, stats
}

// addBatchStats folds one shard sub-batch's report into the merged stats
// (Queries/Invalid/Elapsed are batch-level and excluded).
func addBatchStats(dst, src *pathenum.BatchStats) {
	dst.Unique += src.Unique
	dst.Deduped += src.Deduped
	dst.BFSPassesNaive += src.BFSPassesNaive
	dst.BFSPassesSaved += src.BFSPassesSaved
	dst.BFSPassesRun += src.BFSPassesRun
	dst.FrontierCacheHits += src.FrontierCacheHits
	dst.FrontierCacheMisses += src.FrontierCacheMisses
}

// StreamBatch delivers per-query results in completion order with the
// BatchItem contract of pathenum.Engine.StreamBatch. Routing is
// per-query (each item takes its classified path); cross-shard batches
// do not yet share computation across the boundary, so the trailing
// stats item reports the batch shape only.
func (e *Engine) StreamBatch(ctx context.Context, queries []pathenum.Query, opts pathenum.Options) iter.Seq[pathenum.BatchItem] {
	return func(yield func(pathenum.BatchItem) bool) {
		start := time.Now()
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type settled struct {
			i   int
			res *pathenum.Result
			err error
		}
		// Full-size buffer: workers never block on a slow consumer, and
		// the abandon path can drain without deadlock.
		ch := make(chan settled, len(queries))
		go func() {
			defer close(ch)
			var wg sync.WaitGroup
			sem := make(chan struct{}, e.totalWorkers())
		dispatch:
			for i, q := range queries {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					for j := i; j < len(queries); j++ {
						ch <- settled{i: j, err: ctx.Err()}
					}
					break dispatch
				}
				wg.Add(1)
				go func(i int, q pathenum.Query) {
					defer wg.Done()
					defer func() { <-sem }()
					res, err := e.ExecuteWith(ctx, q, opts)
					ch <- settled{i: i, res: res, err: err}
				}(i, q)
			}
			wg.Wait()
		}()
		defer func() {
			cancel()
			for range ch { //nolint:revive // drain until the dispatcher exits
			}
		}()
		for s := range ch {
			if !yield(pathenum.BatchItem{Index: s.i, Result: s.res, Err: s.err}) {
				return
			}
		}
		yield(pathenum.BatchItem{Index: -1, Stats: &pathenum.BatchStats{
			Queries: len(queries),
			Unique:  len(queries),
			Elapsed: time.Since(start),
		}})
	}
}
