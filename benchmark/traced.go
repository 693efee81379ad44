package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"pathenum"
	"pathenum/internal/server"
	"pathenum/internal/shard"
	"pathenum/internal/workload"
)

const (
	probeBatches = 12 // /batch probes of batchSize shared-source queries
	probeScrapes = 20 // GET /metrics probes
	probeInserts = 5  // inserts per write probe (direct and over HTTP)
)

// runTraced measures the per-layer metrics of one workload: set-up pieces,
// the ladder over the workload's first queries, the workload's own ops
// replayed untraced and traced, and probes of the layers the ladder does
// not reach (batch sharing, write path, scrape). Every call is a span; the
// spans are written to traceOut when the run ends.
func runTraced(s spec, seed int64, traceOut string, w io.Writer) (result, detail, error) {
	det := detail{Workload: s.name, Seed: seed, Trace: 1, Gomaxprocs: runtime.GOMAXPROCS(0), Clients: s.clients, TraceOut: traceOut}
	vals := map[string]float64{}
	var tl tally
	tr := newTracer()

	t0 := time.Now()
	g, err := s.buildGraph()
	if err != nil {
		return result{}, det, err
	}
	vals["graph.build_s"] = time.Since(t0).Seconds()
	tr.add("graph.build", 0, 0, t0, time.Now())
	in, err := makeInputs(s, g, seed)
	if err != nil {
		return result{}, det, err
	}
	det.ScanBefore = scanRate(g)

	t0 = time.Now()
	if _, err := pathenum.BuildOracle(g, daemonLandmarks); err != nil {
		return result{}, det, err
	}
	vals["landmark.build_s"] = time.Since(t0).Seconds()
	tr.add("landmark.build", 0, 0, t0, time.Now())
	t0 = time.Now()
	sh2, err := shard.New(g, 2, shard.Config{Engine: pathenum.EngineConfig{FrontierCache: -1, MemoryBudgetBytes: tracedBudget}})
	if err != nil {
		return result{}, det, err
	}
	vals["shard.new_s"] = time.Since(t0).Seconds()
	tr.add("shard.new", 0, 0, t0, time.Now())

	// The ladder.
	l, err := newLadder(s, g, sh2)
	if err != nil {
		return result{}, det, err
	}
	walks := make([]walk, 0, s.ladder)
	for i, q := range in.queries[:min(s.ladder, len(in.queries)-1)] {
		walks = append(walks, l.walkQuery(q, in.queries[i+1], tr, int64(i+1), &tl))
	}
	l.close()
	for k, v := range l.metrics(walks) {
		vals[k] = v
	}

	// The workload's own ops, untraced and traced, each on a fresh system.
	untraced, traced, e, seen, err := replay(s, in, seed, tr, &tl)
	if err != nil {
		return result{}, det, err
	}
	defer e.stop()
	vals["trace.overhead_frac"] = ratio(traced.p50(), untraced.p50()) - 1
	det.OpsMeasured, det.Passes, det.OpsPerPass = len(traced.samples), 1, len(traced.samples)

	snap := e.eng.Metrics().Snapshot()
	hits, misses := snap["pathenum_frontier_cache_hits_total"], snap["pathenum_frontier_cache_misses_total"]
	vals["cache.hit_ratio"] = ratio(hits, hits+misses)
	vals["cache.evictions"] = snap["pathenum_frontier_cache_evictions_total"]
	vals["cache.invalidations"] = snap["pathenum_frontier_cache_invalidations_total"]
	vals["cache.rejected"] = snap["pathenum_mem_deposits_rejected_total"]
	vals["cache.resident_mb"] = snap["pathenum_frontier_cache_bytes"] / (1 << 20)
	vals["mem.join_fallbacks"] = snap["pathenum_mem_join_fallbacks_total"]
	vals["mem.resident_peak_mb"] = seen.peakMemMB
	vals["engine.oracle_lag_max_ms"] = seen.maxLagMs

	if err := probes(s, e, in, tr, &tl, vals); err != nil {
		return result{}, det, err
	}
	det.ScanAfter = scanRate(g)
	vals["graph.scan_medges_per_s"] = det.ScanAfter
	det.Noisy = math.Abs(det.ScanAfter/det.ScanBefore-1) > noisyShift
	det.Failures = tl.msgs

	res := result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		v, ok := vals[d.Name]
		if !ok {
			return result{}, det, fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if err := tr.writeFile(traceOut); err != nil {
		return result{}, det, err
	}

	fmt.Fprintf(w, "workload %s  seed %d  traced  GOMAXPROCS %d\n", s.name, seed, det.Gomaxprocs)
	fmt.Fprintf(w, "  graph %v\n", g)
	fmt.Fprintf(w, "  ladder: %d queries x %d repetitions, median per query; replay: %d ops untraced and traced\n", len(walks), ladderReps, len(traced.samples))
	fmt.Fprintf(w, "  ladder p50 per rung, ms:\n")
	for r, name := range rungNames {
		var col []float64
		for _, wk := range walks {
			col = append(col, wk.ms[r])
		}
		fmt.Fprintf(w, "    %-22s %12.4f\n", name, median(col))
	}
	fmt.Fprintf(w, "  graph.scan_medges_per_s before %.1f after %.1f noisy %v\n", det.ScanBefore, det.ScanAfter, det.Noisy)
	fmt.Fprintf(w, "  attempted %d  failed %d\n", tl.attempted, tl.failed)
	for _, m := range tl.msgs {
		fmt.Fprintf(w, "  FAILED: %s\n", m)
	}
	fmt.Fprintf(w, "  %d spans written to %s\n", len(tr.spans), traceOut)
	tr.printSelfTimes(w)
	printMetrics(w, perLayer, res.Metrics)
	return res, det, nil
}

// watched is what the sampler saw while the traced replay ran.
type watched struct {
	maxLagMs  float64
	peakMemMB float64
}

// watch samples eng's oracle rebuild lag and byte ledger until the returned
// function is called, which then returns the highest values seen.
func watch(eng server.Engine) func() watched {
	var wt watched
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			wt.maxLagMs = max(wt.maxLagMs, ms(eng.OracleLag()))
			if i%10 == 0 {
				wt.peakMemMB = max(wt.peakMemMB, eng.Metrics().Snapshot()["pathenum_mem_bytes"]/(1<<20))
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() watched {
		close(done)
		wg.Wait()
		return wt
	}
}

// replay sets the workload's system up twice (with the server in front,
// for the probes) — once as the untraced run has it, once traced: byte
// ledger on, every op a span, a sampler on the oracle lag and the ledger —
// warms both and runs the first s.replay ops of the workload on each.
// In-process the two systems take turns op by op, so that a drifting
// machine slows both alike; serve_mixed's concurrent clients cannot
// alternate, so there the untraced replay runs first. The traced system is
// returned still running.
func replay(s spec, in *inputs, seed int64, tr *tracer, tl *tally) (untraced, traced pass, et *env, wt watched, err error) {
	eu, err := setup(s, false, true)
	if err != nil {
		return untraced, traced, nil, wt, err
	}
	defer eu.stop()
	if et, err = setup(s, true, true); err != nil {
		return untraced, traced, nil, wt, err
	}
	if s.kind == kindServe {
		su := newServeRun(eu.base, s, eu.g0, in.queries, seed)
		defer su.close()
		st := newServeRun(et.base, s, et.g0, in.queries, seed)
		defer st.close()
		if err = su.warm(warmOps); err == nil {
			err = st.warm(warmOps)
		}
		if err == nil {
			untraced.samples, _ = su.stretch(0, s.replay/s.clients, false, nil)
			stop := watch(et.eng)
			traced.samples, _ = st.stretch(0, s.replay/s.clients, false, tr)
			wt = stop()
		}
	} else {
		warm := in.queries[:min(warmOps, len(in.queries))]
		if err = runPass(eu.eng, s, warm, nil, nil, nil).err(); err == nil {
			err = runPass(et.eng, s, warm, nil, nil, nil).err()
		}
		if err == nil {
			stop := watch(et.eng)
			for i, q := range in.queries[:min(s.replay, len(in.queries))] {
				untraced.samples = append(untraced.samples, streamOp(eu.eng, q, s.k, s.limit, nil, nil, 0))
				traced.samples = append(traced.samples, streamOp(et.eng, q, s.k, s.limit, nil, tr, int64(i+1)))
			}
			wt = stop()
		}
	}
	if err != nil {
		et.stop()
		return untraced, traced, nil, wt, fmt.Errorf("replay warm-up: %w", err)
	}
	for _, sm := range traced.samples {
		tl.op(sm.err)
	}
	return untraced, traced, et, wt, nil
}

// probes measures the layers neither the ladder nor the replay isolates,
// on the traced system e: /batch sharing, the /metrics scrape and the write
// path, over HTTP and directly.
func probes(s spec, e *env, in *inputs, tr *tracer, tl *tally, vals map[string]float64) error {
	cl := newClient(e.base)
	defer cl.close()

	var batchMs []float64
	var bs batchStats
	nq := len(in.queries)
	for i := 0; i < probeBatches; i++ {
		src := in.queries[i%nq].S
		var qs []workload.Query
		for j := 0; len(qs) < batchSize; j++ {
			if t := in.queries[(i+j)%nq].T; t != src {
				qs = append(qs, workload.Query{S: src, T: t})
			}
		}
		o := batchOp(qs, s.k, s.limit)
		sm := cl.do(&o, nil, tr, int64(i+1))
		tl.op(sm.err)
		batchMs = append(batchMs, sm.ms)
		bs.Queries += sm.batch.Queries
		bs.BFSPassesNaive += sm.batch.BFSPassesNaive
		bs.BFSPassesSaved += sm.batch.BFSPassesSaved
		bs.BFSPassesRun += sm.batch.BFSPassesRun
	}
	vals["server.batch.p50_ms"] = median(batchMs)
	vals["batch.bfs_saved_frac"] = ratio(float64(bs.BFSPassesSaved), float64(bs.BFSPassesNaive))
	vals["batch.bfs_run_per_query"] = ratio(float64(bs.BFSPassesRun), float64(bs.Queries))

	var scrapeMs []float64
	for i := 0; i < probeScrapes; i++ {
		t0 := time.Now()
		d, _, err := cl.get("/metrics")
		tr.add("obs.scrape", 0, int64(i+1), t0, time.Now())
		tl.op(err)
		scrapeMs = append(scrapeMs, d)
	}
	vals["obs.scrape_p50_ms"] = median(scrapeMs)

	// Writes last: they change the graph under everything above.
	var httpMs []float64
	for i, ed := range in.edges[:probeInserts] {
		o := insertOp(ed)
		sm := cl.do(&o, nil, tr, int64(i+1))
		tl.op(sm.err)
		httpMs = append(httpMs, sm.ms)
	}
	vals["server.insert.p50_ms"] = median(httpMs)

	cfg, err := s.engineConfig(e.g0, true)
	if err != nil {
		return err
	}
	cfg.SnapshotEvery = 1
	direct, err := pathenum.NewEngine(e.g0, cfg)
	if err != nil {
		return err
	}
	next := func() (server.Engine, error) { return direct, nil }
	t0 := time.Now()
	directMs, err := writePhase(next, in.edges[probeInserts:2*probeInserts], tl, nil)
	tr.add("engine.insert", 0, 0, t0, time.Now())
	vals["engine.insert.p50_ms"] = median(directMs)
	settle(direct)
	settle(e.eng)
	return err
}
