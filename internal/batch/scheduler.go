package batch

import (
	"container/heap"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// Scheduler executes a Plan across a bounded worker pool. Sessions come
// from the caller (the engine's pool) via Acquire/Release, so batch
// execution shares the same amortized per-worker buffers as the rest of
// the stack.
type Scheduler struct {
	// Workers bounds concurrent query executions (default 4).
	Workers int
	// Acquire/Release check a session in and out of the caller's pool.
	// Both must be safe for concurrent use.
	Acquire func() *core.Session
	Release func(*core.Session)
	// Frontiers, when non-nil, serves cached frontiers for shared-spec
	// and per-member BFS sides and collects the ones the scheduler builds
	// (the engine's cross-batch cache). With a provider every BFS side is
	// materialized as a core.Frontier — a deposit-on-miss cache — so a
	// repeat batch executes with zero BFS passes (subject to the
	// provider's admission policy; see FrontierProvider.Store).
	Frontiers FrontierProvider
	// OnResult, when non-nil, is invoked exactly once per unique query the
	// moment its slot is decided — a computed Result, a query error, or the
	// batch's cancellation error — concurrently from whichever worker
	// goroutine decided it. This is the streaming delivery seam: consumers
	// flush per-query results as groups complete instead of waiting for
	// Execute to return. The callback must be safe for concurrent use and
	// cheap; it runs on the execution path.
	OnResult func(unique int, res *core.Result, err error)
	// Estimate, when non-nil, overrides the cardinality-feedback signal a
	// group's probe run feeds back into the queue: it receives the probe's
	// query and Result (nil when the probe failed) and returns the value
	// remaining members are ranked by, smallest first. The default is the
	// probe Result's preliminary search-space estimate (Equation 5,
	// Plan.Preliminary), falling back to the group's static Cost. Tests
	// fix this to pin re-rank order; production leaves it nil.
	Estimate func(q core.Query, probe *core.Result) float64
}

// settle records the outcome of one unique query and notifies OnResult.
func (sch *Scheduler) settle(results []*core.Result, errs []error, u int, res *core.Result, err error) {
	results[u] = res
	errs[u] = err
	if sch.OnResult != nil {
		sch.OnResult(u, res, err)
	}
}

// passCounters tracks what the batch actually ran, aggregated across all
// worker goroutines.
type passCounters struct {
	run     atomic.Int64 // BFS passes executed (frontier builds + session passes)
	hits    atomic.Int64 // FrontierProvider lookups served
	misses  atomic.Int64 // FrontierProvider lookups missed
	refused atomic.Int64 // deposits the FrontierProvider declined
}

// frontierKey identifies one BFS side within a batch.
type frontierKey struct {
	origin  graph.VertexID
	forward bool
}

// sharedCell is the single-flight slot for one planned shared frontier.
// The first task needing it builds (or cache-fills) it under once; every
// later user reads the settled fields. A build error leaves f nil and the
// users fall back to their own per-member resolution.
type sharedCell struct {
	once      sync.Once
	spec      FrontierSpec
	f         *core.Frontier
	fromCache bool
	buildNs   int64
}

// sharedPool resolves the plan's shared frontier specs exactly once each.
type sharedPool struct {
	cells   map[frontierKey]*sharedCell
	buildNs atomic.Int64 // total build time across all cells
}

func newSharedPool(specs []FrontierSpec) *sharedPool {
	p := &sharedPool{cells: make(map[frontierKey]*sharedCell, len(specs))}
	for _, spec := range specs {
		p.cells[frontierKey{spec.Origin, spec.Forward}] = &sharedCell{spec: spec}
	}
	return p
}

// resolve returns the shared frontier for (origin, forward), building it
// single-flight on first use: provider lookup first, then a BFS pass at
// the spec's largest bound, deposited back with its planned use count.
// Returns (nil, nil) when the side is not a planned shared spec.
func (p *sharedPool) resolve(sch *Scheduler, g *graph.Graph, origin graph.VertexID, forward bool, opts core.Options, passes *passCounters) (*core.Frontier, *sharedCell) {
	if p == nil {
		return nil, nil
	}
	cell := p.cells[frontierKey{origin, forward}]
	if cell == nil {
		return nil, nil
	}
	cell.once.Do(func() {
		if f := sch.lookup(origin, forward, cell.spec.MaxK, passes); f != nil {
			cell.f, cell.fromCache = f, true
			return
		}
		start := time.Now()
		var f *core.Frontier
		var err error
		if forward {
			f, err = core.NewForwardFrontier(g, origin, cell.spec.MaxK, opts.Predicate, opts.PredicateToken)
		} else {
			f, err = core.NewBackwardFrontier(g, origin, cell.spec.MaxK, opts.Predicate, opts.PredicateToken)
		}
		if err != nil {
			return
		}
		cell.f = f
		cell.buildNs = time.Since(start).Nanoseconds()
		p.buildNs.Add(cell.buildNs)
		passes.run.Add(1)
		if sch.Frontiers != nil && !sch.Frontiers.Store(f, cell.spec.Uses) {
			passes.refused.Add(1)
		}
	})
	return cell.f, cell
}

// task is one unit of queue work: a group's probe (its first member, run
// to harvest the cardinality estimate) or a re-ranked remaining member.
type task struct {
	probe bool
	gi    int     // group index into plan.Groups
	u     int     // unique index (member tasks; probe runs Members[0])
	mi    int     // member index within the group (tie-break)
	pri   float64 // member priority: the group's fed-back estimate
}

// taskHeap orders probes before members (every group gets its estimate
// before the bulk work is ordered), probes by plan order (descending
// static cost), members by ascending estimate — cheapest first for
// time-to-first-result — with a deterministic (group, member) tie-break.
type taskHeap []task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.probe != b.probe {
		return a.probe
	}
	if a.probe {
		return a.gi < b.gi
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	if a.gi != b.gi {
		return a.gi < b.gi
	}
	return a.mi < b.mi
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// taskQueue is the scheduler's priority work queue. Workers block in pop
// until a task is ready, every task is done (empty heap, nothing in
// flight — only running tasks enqueue new ones), or the queue is
// cancelled.
type taskQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	heap      taskHeap
	inflight  int
	cancelled bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a task; dropped silently after cancellation (the final
// sweep settles whatever never ran).
func (q *taskQueue) push(t task) {
	q.mu.Lock()
	if !q.cancelled {
		heap.Push(&q.heap, t)
	}
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks for the next task; ok=false means the queue is drained or
// cancelled and the worker should exit.
func (q *taskQueue) pop() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.cancelled {
			return task{}, false
		}
		if len(q.heap) > 0 {
			t := heap.Pop(&q.heap).(task)
			q.inflight++
			return t, true
		}
		if q.inflight == 0 {
			return task{}, false
		}
		q.cond.Wait()
	}
}

// done retires a popped task, waking workers parked on an empty heap so
// they can observe drain.
func (q *taskQueue) done() {
	q.mu.Lock()
	q.inflight--
	q.mu.Unlock()
	q.cond.Broadcast()
}

// cancel drains the queue and releases every parked worker.
func (q *taskQueue) cancel() {
	q.mu.Lock()
	q.cancelled = true
	q.heap = nil
	q.mu.Unlock()
	q.cond.Broadcast()
}

// execState carries one Execute call's shared state across workers.
type execState struct {
	sch     *Scheduler
	g       *graph.Graph
	plan    *Plan
	opts    core.Options
	results []*core.Result
	errs    []error
	stats   *Stats
	passes  passCounters
	pool    *sharedPool // nil for opaque predicates or spec-free plans
	queue   *taskQueue
	settled []bool // per unique; written once pre-join, swept post-join

	groupStart []time.Time    // set by the probe before members enqueue
	groupLast  []atomic.Int64 // latest member-done offset ns, per group
}

// Execute runs the plan's work queue across the worker pool with
// fail-fast cancellation mirroring Engine.ExecuteAllContext: once ctx is
// done, members not yet started return ctx.Err() immediately and
// in-flight enumerations stop early.
//
// Scheduling is two-phase per group. Each group's probe task — ordered by
// the planner's static cost, most expensive first — resolves the shared
// frontiers its first member needs (single-flight through the plan's
// two-sided specs, provider first, one BFS at most per distinct
// endpoint), runs that member, and feeds the observed preliminary
// estimate (Equation 5) back into the queue: the remaining members
// re-enter ranked by real predicted cardinality, cheapest first across
// all groups, rather than the static members x maxK proxy. Sharing
// requires an identifiable predicate: when opts.Predicate is non-nil with
// a zero PredicateToken, the shared pool is disabled and every member
// runs independently (correct, no reuse). Results and errors come back
// indexed by plan.Unique (use Plan.Scatter to fan them out to original
// batch positions); the returned Stats carry the planner accounting plus
// wall timings, actual pass counts and cache hit/miss counters.
func (sch *Scheduler) Execute(ctx context.Context, g *graph.Graph, plan *Plan, opts core.Options) ([]*core.Result, []error, *Stats) {
	workers := sch.Workers
	if workers <= 0 {
		workers = 4
	}
	stats := plan.Stats()
	stats.GroupTimings = make([]GroupTiming, len(plan.Groups))
	st := &execState{
		sch:        sch,
		g:          g,
		plan:       plan,
		opts:       opts,
		results:    make([]*core.Result, len(plan.Unique)),
		errs:       make([]error, len(plan.Unique)),
		stats:      stats,
		queue:      newTaskQueue(),
		settled:    make([]bool, len(plan.Unique)),
		groupStart: make([]time.Time, len(plan.Groups)),
		groupLast:  make([]atomic.Int64, len(plan.Groups)),
	}
	if shareable(opts) && len(plan.Shared) > 0 {
		st.pool = newSharedPool(plan.Shared)
	}
	for gi := range plan.Groups {
		grp := &plan.Groups[gi]
		stats.GroupTimings[gi] = GroupTiming{Kind: grp.Kind, Hub: grp.Hub, Size: len(grp.Members)}
		st.queue.push(task{probe: true, gi: gi})
	}

	start := time.Now()
	stop := context.AfterFunc(ctx, st.queue.cancel)
	defer stop()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t, ok := st.queue.pop()
				if !ok {
					return
				}
				st.run(ctx, t)
				st.queue.done()
				// Yield between tasks so a consumer woken by OnResult can
				// run (and possibly cancel) even with every P busy — the
				// old semaphore handoff parked workers here; a lock-free
				// heap pop never would.
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()

	// Sweep: anything the cancellation drained before it ran settles with
	// the batch's error, preserving the exactly-once OnResult contract.
	if err := ctx.Err(); err != nil {
		for u := range plan.Unique {
			if !st.settled[u] {
				sch.settle(st.results, st.errs, u, nil, err)
			}
		}
	}

	stats.Elapsed = time.Since(start)
	stats.BFSPassesRun = int(st.passes.run.Load())
	stats.FrontierCacheHits = int(st.passes.hits.Load())
	stats.FrontierCacheMisses = int(st.passes.misses.Load())
	stats.DepositsRefused = int(st.passes.refused.Load())
	if st.pool != nil {
		stats.SharedBFS = time.Duration(st.pool.buildNs.Load())
	}
	for gi := range stats.GroupTimings {
		stats.GroupTimings[gi].Elapsed = time.Duration(st.groupLast[gi].Load())
	}
	return st.results, st.errs, stats
}

// run executes one queue task on the calling worker. Tasks popped after
// cancellation settle with ctx.Err() instead of running — the per-task
// check is what makes fail-fast immediate even before the queue's own
// cancel callback drains the heap.
func (st *execState) run(ctx context.Context, t task) {
	if err := ctx.Err(); err != nil {
		if t.probe {
			for _, u := range st.plan.Groups[t.gi].Members {
				st.settled[u] = true
				st.sch.settle(st.results, st.errs, u, nil, err)
			}
			return
		}
		st.settled[t.u] = true
		st.sch.settle(st.results, st.errs, t.u, nil, err)
		return
	}
	if t.probe {
		st.runProbe(ctx, t.gi)
		return
	}
	st.runMember(ctx, t.gi, t.u)
}

// runProbe runs a group's first member, records the group timing facts,
// and enqueues the remaining members ranked by the fed-back estimate.
func (st *execState) runProbe(ctx context.Context, gi int) {
	grp := &st.plan.Groups[gi]
	timing := &st.stats.GroupTimings[gi]
	st.groupStart[gi] = time.Now()

	// Resolve the hub frontier up front so its build is attributed to the
	// group even when the probe's own sides come from elsewhere.
	if grp.Kind != KindSingleton && st.pool != nil {
		if _, cell := st.pool.resolve(st.sch, st.g, grp.Hub, grp.Kind == KindSharedSource, st.opts, &st.passes); cell != nil {
			timing.CacheHit = cell.fromCache
			timing.SharedBFS = time.Duration(cell.buildNs)
		}
	}

	u := grp.Members[0]
	res, err := st.runOne(ctx, st.plan.Unique[u])
	st.settleMember(gi, u, res, err)

	est := grp.Cost
	if st.sch.Estimate != nil {
		est = st.sch.Estimate(st.plan.Unique[u], res)
	} else if res != nil {
		est = res.Plan.Preliminary
	}
	timing.Estimate = est
	for mi, v := range grp.Members[1:] {
		st.queue.push(task{gi: gi, u: v, mi: mi + 1, pri: est})
	}
}

// runMember runs one re-ranked member.
func (st *execState) runMember(ctx context.Context, gi, u int) {
	res, err := st.runOne(ctx, st.plan.Unique[u])
	st.settleMember(gi, u, res, err)
}

// settleMember settles a unique query from the worker that ran it and
// advances the group's last-member-done watermark.
func (st *execState) settleMember(gi, u int, res *core.Result, err error) {
	st.settled[u] = true
	st.sch.settle(st.results, st.errs, u, res, err)
	elapsed := time.Since(st.groupStart[gi]).Nanoseconds()
	last := &st.groupLast[gi]
	for {
		cur := last.Load()
		if elapsed <= cur || last.CompareAndSwap(cur, elapsed) {
			return
		}
	}
}

// shareable reports whether frontiers may be built and cached under opts:
// an opaque predicate (non-nil function, zero token) has no identity to
// key sharing on. See core.PredicateToken.
func shareable(opts core.Options) bool {
	return opts.Predicate == nil || opts.PredicateToken != core.PredicateNone
}

// lookup consults the FrontierProvider, maintaining the hit/miss
// counters. Nil-provider lookups are free and uncounted.
func (sch *Scheduler) lookup(origin graph.VertexID, forward bool, k int, passes *passCounters) *core.Frontier {
	if sch.Frontiers == nil {
		return nil
	}
	if f := sch.Frontiers.Lookup(origin, forward, k); f != nil {
		passes.hits.Add(1)
		return f
	}
	passes.misses.Add(1)
	return nil
}

// runOne executes a single query on a pooled session. Each side resolves
// through the shared pool first (one single-flight BFS per planned shared
// endpoint), then the provider (cache hit, or — where the provider admits
// the endpoint — build + deposit with uses=1), and otherwise runs as the
// session's own labeling.
func (st *execState) runOne(ctx context.Context, q core.Query) (*core.Result, error) {
	sch := st.sch
	fwd, _ := st.pool.resolve(sch, st.g, q.S, true, st.opts, &st.passes)
	bwd, _ := st.pool.resolve(sch, st.g, q.T, false, st.opts, &st.passes)
	if sch.Frontiers != nil && shareable(st.opts) {
		if fwd == nil {
			fwd = sch.memberFrontier(st.g, q.S, true, q.K, st.opts, &st.passes)
		}
		if bwd == nil {
			bwd = sch.memberFrontier(st.g, q.T, false, q.K, st.opts, &st.passes)
		}
	}
	// Sides still nil run as scratch BFS passes inside the session.
	if fwd == nil {
		st.passes.run.Add(1)
	}
	if bwd == nil {
		st.passes.run.Add(1)
	}
	sess := sch.Acquire()
	defer sch.Release(sess)
	return sess.RunShared(ctx, q, st.opts, fwd, bwd)
}

// memberFrontier resolves one per-member BFS side through the provider:
// cache hit, or build + deposit when the provider would keep the deposit
// (nobody else in the batch uses this side, so a frontier the provider
// turns down is not worth building). Construction errors (e.g. an endpoint
// out of range) return nil so the session's own validation reports them.
func (sch *Scheduler) memberFrontier(g *graph.Graph, origin graph.VertexID, forward bool, k int, opts core.Options, passes *passCounters) *core.Frontier {
	if f := sch.lookup(origin, forward, k, passes); f != nil {
		return f
	}
	if !sch.Frontiers.Admits(origin, forward) {
		return nil
	}
	var f *core.Frontier
	var err error
	if forward {
		f, err = core.NewForwardFrontier(g, origin, k, opts.Predicate, opts.PredicateToken)
	} else {
		f, err = core.NewBackwardFrontier(g, origin, k, opts.Predicate, opts.PredicateToken)
	}
	if err != nil {
		return nil
	}
	passes.run.Add(1)
	if !sch.Frontiers.Store(f, 1) {
		passes.refused.Add(1)
	}
	return f
}
