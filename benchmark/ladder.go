package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pathenum"
	"pathenum/internal/core"
	"pathenum/internal/server"
	"pathenum/internal/shard"
	"pathenum/internal/workload"
)

// The ladder walks one query set up the layers of the repository, one rung
// at a time, every rung timed from outside through the layer's public
// functions. Adjacent rungs differ by one layer, so the difference of their
// times is that layer's tax on the same work.
const (
	rBFS           = iota // core.NewForwardFrontier + core.NewBackwardFrontier
	rIndex                // core.BuildIndexTimed (its own BFS included)
	rEstimator            // PreliminaryEstimate + FullEstimate + ChoosePlan
	rDFS                  // core.EnumerateDFS on the built index, counting
	rJoin                 // core.EnumerateJoinSide at the estimator's cut and side, counting
	rSessionRun           // core.Session.Run, counting
	rSessionStream        // core.Session.Stream, drained
	rParallel             // core.Session.Run with Options.Parallelism 2, counting
	rEngineExecute        // pathenum.Engine.ExecuteWith, counting
	rEngineStream         // pathenum.Engine.Stream, drained
	rEngineCold           // the same on a fresh engine with the workload's cache settings: a miss
	rShardP1              // shard.New(g, 1).Stream, drained
	rShardP2              // shard.New(g, 2).Stream, drained
	rServerPaths          // POST /paths over loopback, drained to the done line
	rServerQuery          // POST /query over loopback
	numRungs
)

var rungNames = [numRungs]string{
	"core.bfs", "core.index", "core.estimator", "core.dfs", "core.join",
	"core.session.run", "core.session.stream", "core.parallel.p2",
	"engine.execute", "engine.stream", "engine.stream.cold", "shard.p1.stream", "shard.p2.stream",
	"server.paths", "server.query",
}

// ladderReps is how often each rung runs per query; a query's time on a
// rung is the median of them.
const ladderReps = 3

// walk is what the ladder measured for one query.
type walk struct {
	ms          [numRungs]float64 // median over the repetitions
	indexOnlyMs float64           // index build net of its BFS
	firstLineMs float64           // /paths: request to first path line
	vertices    int
	edges       int64
	joinPlanned bool
	estWalks    float64
	count       uint64 // results under the limit, the same on every rung
	dfs         core.Counters
	joined      bool // the join rung ran (the estimator found a cut)
	cross       bool // endpoints owned by different shards at P=2
}

// allocs accumulates runtime.MemStats deltas around one rung.
type allocs struct {
	mallocs, bytes, calls, paths uint64
}

func (a *allocs) around(paths *uint64, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	a.mallocs += after.Mallocs - before.Mallocs
	a.bytes += after.TotalAlloc - before.TotalAlloc
	a.calls++
	a.paths += *paths
}

// ladder holds the systems the rungs call into, all over one graph. The
// engines run with the frontier cache off: repetitions would otherwise be
// cache hits on hub endpoints and the engine rungs would measure the cache
// instead of the glue. The cache has a rung of its own, engine.stream.cold,
// which sends the query through a fresh engine with the workload's cache
// settings, so that it misses and goes through admission; what the cache
// gives back shows in cache.* from the replayed workload.
type ladder struct {
	s       spec
	g       *pathenum.Graph
	limit   uint64
	sess    *core.Session
	eng     *pathenum.Engine
	coldCfg pathenum.EngineConfig
	sh1     *shard.Engine
	sh2     *shard.Engine
	cl      *client
	stop    func()

	sessStream, engStream allocs
	pathBytes, pathCount  uint64
}

func newLadder(s spec, g *pathenum.Graph, sh2 *shard.Engine) (*ladder, error) {
	cfg, err := s.engineConfig(g, true)
	if err != nil {
		return nil, err
	}
	l := &ladder{s: s, g: g, limit: s.limit, sh2: sh2, sess: core.NewSession(g, cfg.Oracle), coldCfg: cfg}
	cfg.FrontierCache = -1
	if l.eng, err = pathenum.NewEngine(g, cfg); err != nil {
		return nil, err
	}
	if l.sh1, err = shard.New(g, 1, shard.Config{Engine: cfg}); err != nil {
		return nil, err
	}
	var base string
	if base, l.stop, err = serve(l.eng); err != nil {
		return nil, err
	}
	l.cl = newClient(base)
	return l, nil
}

func (l *ladder) close() {
	l.cl.close()
	l.stop()
}

func drain(seq func(func([]pathenum.VertexID, error) bool)) (n uint64, err error) {
	for _, serr := range seq {
		if serr != nil {
			return n, serr
		}
		n++
	}
	return n, nil
}

// walkQuery runs every rung ladderReps times for one query. Each rung that
// produces a result count is one attempted op; it fails when the count
// differs from the DFS rung's. other is a different query, run untimed on
// the cold engine first so that its session scratch exists.
func (l *ladder) walkQuery(q, other workload.Query, tr *tracer, opID int64, tl *tally) walk {
	s, g, ctx := l.s, l.g, context.Background()
	cq := core.Query{S: q.S, T: q.T, K: s.k}
	ctl := core.RunControl{Limit: l.limit}
	opts := core.Options{Limit: l.limit}
	pathsOp := op{kind: opPaths, queries: []workload.Query{q}, body: queryBody(q, s.k, l.limit)}
	queryOp := op{kind: opQuery, queries: pathsOp.queries, body: pathsOp.body}

	var w walk
	var reps [numRungs][]float64
	var indexOnly, firstLine []float64
	for rep := 0; rep < ladderReps; rep++ {
		root := tr.open("ladder", 0, opID, time.Now())
		lap := func(r int, f func()) {
			t0 := time.Now()
			f()
			t1 := time.Now()
			tr.add(rungNames[r], root, opID, t0, t1)
			reps[r] = append(reps[r], ms(t1.Sub(t0)))
		}
		// agree books one counted rung call.
		agree := func(r int, n uint64, err error) {
			if err == nil && n != w.count {
				err = fmt.Errorf("%s q(%d,%d): %d results, core.dfs counted %d", rungNames[r], q.S, q.T, n, w.count)
			}
			tl.op(err)
		}

		var err, err2 error
		lap(rBFS, func() {
			_, err = core.NewForwardFrontier(g, q.S, s.k, nil, core.PredicateNone)
			_, err2 = core.NewBackwardFrontier(g, q.T, s.k, nil, core.PredicateNone)
		})
		if err != nil || err2 != nil {
			tl.op(fmt.Errorf("core.bfs q(%d,%d): %v %v", q.S, q.T, err, err2))
		}
		var ix *core.Index
		var tm core.IndexBuildTimings
		lap(rIndex, func() { ix, tm, err = core.BuildIndexTimed(g, cq) })
		if err != nil {
			tl.op(err)
			tr.close(root, time.Now())
			continue
		}
		indexOnly = append(indexOnly, ms(tm.Total-tm.BFS))
		w.vertices, w.edges = ix.NumIndexed(), ix.Edges()

		var est *core.Estimate
		var plan core.Plan
		lap(rEstimator, func() {
			_ = core.PreliminaryEstimate(ix)
			est = core.FullEstimate(ix)
			plan = core.ChoosePlan(ix, 0)
		})
		w.joinPlanned, w.estWalks = plan.Method == core.MethodJoin, float64(est.Walks)

		w.dfs = core.Counters{}
		lap(rDFS, func() { core.EnumerateDFS(ix, ctl, &w.dfs) })
		w.count = w.dfs.Results
		tl.op(nil)

		if w.joined = est.Cut > 0; w.joined {
			var jc core.Counters
			lap(rJoin, func() { _, err = core.EnumerateJoinSide(ix, est.Cut, est.BuildSideAt(est.Cut), ctl, &jc, nil) })
			agree(rJoin, jc.Results, err)
		}

		var res *core.Result
		count := func() uint64 {
			if res == nil {
				return 0
			}
			return res.Counters.Results
		}
		lap(rSessionRun, func() { res, err = l.sess.Run(cq, opts) })
		agree(rSessionRun, count(), err)

		var n uint64
		l.sessStream.around(&n, func() {
			lap(rSessionStream, func() { n, err = drain(l.sess.Stream(ctx, cq, opts)) })
		})
		agree(rSessionStream, n, err)

		lap(rParallel, func() { res, err = l.sess.Run(cq, core.Options{Limit: l.limit, Parallelism: 2}) })
		agree(rParallel, count(), err)

		lap(rEngineExecute, func() { res, err = l.eng.ExecuteWith(ctx, cq, opts) })
		agree(rEngineExecute, count(), err)

		stream := func(r int, eng server.Engine) {
			var sm sample
			lap(r, func() { sm = streamOp(eng, q, s.k, l.limit, nil, nil, 0) })
			n = sm.paths
			agree(r, sm.paths, sm.err)
		}
		l.engStream.around(&n, func() { stream(rEngineStream, l.eng) })
		if cold, cerr := pathenum.NewEngine(g, l.coldCfg); cerr != nil {
			tl.op(cerr)
		} else {
			streamOp(cold, other, s.k, l.limit, nil, nil, 0)
			stream(rEngineCold, cold)
		}
		stream(rShardP1, l.sh1)
		stream(rShardP2, l.sh2)

		var sm sample
		lap(rServerPaths, func() { sm = l.cl.do(&pathsOp, nil, nil, 0) })
		agree(rServerPaths, sm.paths, sm.err)
		firstLine = append(firstLine, sm.firstMs)
		l.pathBytes += uint64(sm.bytes)
		l.pathCount += sm.paths
		lap(rServerQuery, func() { sm = l.cl.do(&queryOp, nil, nil, 0) })
		agree(rServerQuery, sm.paths, sm.err)
		tr.close(root, time.Now())
	}
	for r := range reps {
		w.ms[r] = median(reps[r])
	}
	w.indexOnlyMs, w.firstLineMs = median(indexOnly), median(firstLine)
	w.cross = l.sh2.Owner(q.S) != l.sh2.Owner(q.T)
	return w
}

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderMetrics turns the walks into the per-layer metrics of the ladder.
func (l *ladder) metrics(walks []walk) map[string]float64 {
	col := func(f func(walk) float64) []float64 {
		out := make([]float64, len(walks))
		for i, w := range walks {
			out[i] = f(w)
		}
		return out
	}
	rung := func(r int) []float64 { return col(func(w walk) float64 { return w.ms[r] }) }
	diff := func(a, b int) []float64 { return col(func(w walk) float64 { return w.ms[a] - w.ms[b] }) }
	counts := sum(col(func(w walk) float64 { return float64(w.count) }))
	// perS is results per second of a rung over the queries it ran on.
	perS := func(r int, ran func(walk) bool) float64 {
		var n, t float64
		for _, w := range walks {
			if ran(w) {
				n += float64(w.count)
				t += w.ms[r] / 1000
			}
		}
		return ratio(n, t)
	}
	all := func(walk) bool { return true }

	m := map[string]float64{
		"core.bfs.p50_ms":   median(rung(rBFS)),
		"core.index.p50_ms": median(col(func(w walk) float64 { return w.indexOnlyMs })),
		"core.prep.us_per_indexed_vertex": ratio(1000*sum(rung(rIndex)),
			sum(col(func(w walk) float64 { return float64(w.vertices) }))),
		"core.index.vertices_mean": mean(col(func(w walk) float64 { return float64(w.vertices) })),
		"core.index.edges_mean":    mean(col(func(w walk) float64 { return float64(w.edges) })),
		"core.estimator.p50_ms":    median(rung(rEstimator)),
		"core.plan.join_frac": mean(col(func(w walk) float64 {
			if w.joinPlanned {
				return 1
			}
			return 0
		})),
		"core.dfs.paths_per_s":  perS(rDFS, all),
		"core.join.paths_per_s": perS(rJoin, func(w walk) bool { return w.joined }),
		"core.enum.edges_per_path": ratio(
			sum(col(func(w walk) float64 { return float64(w.dfs.EdgesAccessed) })), counts),
		"core.enum.invalid_per_path": ratio(
			sum(col(func(w walk) float64 { return float64(w.dfs.InvalidPartials) })), counts),
		"core.session.run_p50_ms":         median(rung(rSessionRun)),
		"core.session.stream_tax_ms":      median(diff(rSessionStream, rSessionRun)),
		"core.session.stream_paths_per_s": perS(rSessionStream, all),
		"core.session.allocs_per_path":    ratio(float64(l.sessStream.mallocs), float64(l.sessStream.paths)),
		"core.parallel.p2_paths_per_s":    perS(rParallel, all),
		"engine.execute_tax_ms":           median(diff(rEngineExecute, rSessionRun)),
		"engine.stream_tax_ms":            median(diff(rEngineStream, rSessionStream)),
		"engine.cache_miss_tax_ms":        median(diff(rEngineCold, rEngineStream)),
		"engine.allocs_per_op":            ratio(float64(l.engStream.mallocs), float64(l.engStream.calls)),
		"engine.alloc_kb_per_op":          ratio(float64(l.engStream.bytes)/1024, float64(l.engStream.calls)),
		"shard.p1_tax_frac":               ratio(sum(rung(rShardP1)), sum(rung(rEngineStream))) - 1,
		"server.query.p50_ms":             median(rung(rServerQuery)),
		"server.paths.p50_ms":             median(rung(rServerPaths)),
		"server.paths.first_line_p50_ms":  median(col(func(w walk) float64 { return w.firstLineMs })),
		"server.paths.bytes_per_path":     ratio(float64(l.pathBytes), float64(l.pathCount)),
		"server.http_tax_ms":              median(diff(rServerPaths, rEngineStream)),
	}

	// The estimator's q-error, max(est/act, act/est), over queries whose
	// result the limit did not cut short: the estimate is |W|, the padded
	// walk count that bounds the path count from above.
	var qerr []float64
	for _, w := range walks {
		if w.count < l.limit {
			est, act := max(w.estWalks, 1), max(float64(w.count), 1)
			qerr = append(qerr, max(est/act, act/est))
		}
	}
	m["core.estimator.qerror_p50"] = percentile(qerr, 50)
	m["core.estimator.qerror_p95"] = percentile(qerr, 95)

	var intra, cross, crossSingle []float64
	for _, w := range walks {
		if w.cross {
			cross = append(cross, w.ms[rShardP2])
			crossSingle = append(crossSingle, w.ms[rEngineStream])
		} else {
			intra = append(intra, w.ms[rShardP2])
		}
	}
	m["shard.p2.intra_p50_ms"] = median(intra)
	m["shard.p2.cross_p50_ms"] = median(cross)
	m["shard.cross_over_single"] = ratio(median(cross), median(crossSingle))
	return m
}
