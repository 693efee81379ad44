package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"pathenum"
	"pathenum/internal/server"
	"pathenum/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the benchmark contract's result
// object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is what a run knows beyond the contract's result object; the
// all-workloads mode stores it beside the result for -compare and for the
// reader of a baseline file.
type detail struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	Trace       int       `json:"trace"`
	Seconds     float64   `json:"seconds"`
	Gomaxprocs  int       `json:"gomaxprocs"`
	Clients     int       `json:"clients"`
	OpsMeasured int       `json:"ops_measured"`
	Passes      int       `json:"passes"`
	OpsPerPass  int       `json:"ops_per_pass"`
	PathsTotal  uint64    `json:"paths_total"` // per pass: exact for a seed in-process
	PassP50Ms   []float64 `json:"pass_p50_ms,omitempty"`
	SetupRunsS  []float64 `json:"setup_runs_s,omitempty"`
	// The same without calibration, and the probe the calibration used
	// (min, median, max of the run, beside the reference it scales to).
	RawPassP50Ms  []float64  `json:"raw_pass_p50_ms,omitempty"`
	RawSetupRunsS []float64  `json:"raw_setup_runs_s,omitempty"`
	RawWriteMs    []float64  `json:"raw_write_ms,omitempty"`
	ProbeMs       [3]float64 `json:"probe_min_median_max_ms"`
	ProbeRefMs    float64    `json:"probe_ref_ms"`
	CopyProbeMs   []float64  `json:"copy_probe_min_median_max_ms,omitempty"`
	ScanBefore    float64    `json:"scan_medges_per_s_before"`
	ScanAfter     float64    `json:"scan_medges_per_s_after"`
	Noisy         bool       `json:"noisy"`
	VerifyS       float64    `json:"bench.verify_s"`
	Failures      []string   `json:"failures,omitempty"`
	TraceOut      string     `json:"trace_out,omitempty"`
}

// tally counts attempted and failed ops and keeps the first few reasons.
type tally struct {
	attempted, failed int
	msgs              []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.msgs) < 8 {
			t.msgs = append(t.msgs, err.Error())
		}
	}
}

const (
	setupRuns = 3 // set-ups per run; setup_s is their median
	// warmOps is the number of untimed ops per client before the measured
	// passes: more than the frontier cache holds, so that the cache and the
	// heap are in their steady state when measuring starts.
	warmOps    = 100
	noisyShift = 0.10
	// serve_mixed's clients run in stretches of serveStretch between two
	// calibration probes; servePass of them make a pass.
	serveStretch = time.Second
	servePass    = 5 * time.Second
)

// pass is one measured pass: every query of the workload once (in-process),
// or everything the clients completed (serve_mixed). wall is the time the
// ops took in seconds, probes excluded; calWall is the same calibrated.
type pass struct {
	samples       []sample
	wall, calWall float64
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(s spec, seed int64, seconds float64, w io.Writer) (result, detail, error) {
	det := detail{Workload: s.name, Seed: seed, Seconds: seconds, Gomaxprocs: runtime.GOMAXPROCS(0), Clients: s.clients, ProbeRefMs: s.probeRefMs}
	g, err := s.buildGraph()
	if err != nil {
		return result{}, det, err
	}
	in, err := makeInputs(s, g, seed)
	if err != nil {
		return result{}, det, err
	}
	cal := newCalibrator(g, s.probeRefMs, s.copyRefMs)

	// Set up several times and keep the last system. Every probe of the
	// window runs on a collected heap, as those of the write phase do: on
	// the garbage a set-up leaves, a probe's own allocations start the
	// collector.
	var e *env
	mark, probe, factor := cal.bulk()
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.stop()
		}
		e = nil
		runtime.GC()
		probe()
		t0 := time.Now()
		if e, err = setup(s, false, false); err != nil {
			return result{}, det, err
		}
		det.RawSetupRunsS = append(det.RawSetupRunsS, time.Since(t0).Seconds())
		runtime.GC()
		probe()
	}
	defer e.stop()
	for _, raw := range det.RawSetupRunsS {
		det.SetupRunsS = append(det.SetupRunsS, raw*factor(mark))
	}

	var tl tally
	var passes []pass
	var writeMs []float64
	var rss float64 // memory high-water mark, MB
	var kept [][]pathenum.Path
	det.ScanBefore = scanRate(e.g0)
	if s.kind == kindServe {
		sr := newServeRun(e.base, s, e.g0, in.queries, seed)
		defer sr.close()
		if err := sr.warm(warmOps); err != nil {
			return result{}, det, fmt.Errorf("warm-up: %w", err)
		}
		passes = sr.measure(e.eng, seconds, cal)
		for _, p := range passes {
			for _, sm := range p.samples {
				if sm.kind == opInsert {
					writeMs = append(writeMs, sm.ms*sm.cal)
				}
			}
		}
	} else {
		if s.name == "light_large" {
			// Light result sets are small enough to hold, so the consumer
			// keeps them and the verifier compares whole sets.
			kept = make([][]pathenum.Path, len(in.queries))
		}
		if p := runPass(e.eng, s, in.queries[:min(warmOps, len(in.queries))], nil, nil, nil); p.err() != nil {
			return result{}, det, fmt.Errorf("warm-up: %w", p.err())
		}
		passes = measurePasses(e.eng, s, in.queries, kept, seconds, cal)
		if s.freshWrites {
			// The engines of the write phase are then the benchmark's and
			// not the workload's, so the high-water mark is read before them.
			if rss, err = peakRSSMB(); err != nil {
				return result{}, det, err
			}
		}
		if det.RawWriteMs, writeMs, err = writes(e, s, in.edges[:s.writes], &tl, cal); err != nil {
			return result{}, det, err
		}
	}
	det.ScanAfter = scanRate(e.g0)
	det.Noisy = math.Abs(det.ScanAfter/det.ScanBefore-1) > noisyShift
	det.ProbeMs = [3]float64{percentile(cal.probes, 0), median(cal.probes), percentile(cal.probes, 100)}
	if len(cal.copies) > 0 {
		det.CopyProbeMs = []float64{percentile(cal.copies, 0), median(cal.copies), percentile(cal.copies, 100)}
	}
	if !s.freshWrites {
		if rss, err = peakRSSMB(); err != nil {
			return result{}, det, err
		}
	}

	// Reference computation and comparison are not timed and come after
	// the memory high-water mark is read, so they are in no metric.
	t0 := time.Now()
	if s.kind == kindServe {
		err = verifyServe(e, s, in, passes, &tl)
	} else {
		err = verifyStream(e, s, in, passes, kept, &tl)
	}
	if err != nil {
		return result{}, det, err
	}
	det.VerifyS = time.Since(t0).Seconds()
	det.Failures = tl.msgs

	res := result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metric{}}
	put := func(name string, v float64) {
		d, _ := findMetric(endToEnd, name)
		res.Metrics[name] = metric{Value: v, Unit: d.Unit}
	}
	sum := summarize(passes, s.kind == kindServe)
	det.Passes, det.OpsMeasured, det.PassP50Ms, det.RawPassP50Ms = len(passes), sum.ops, sum.passP50, sum.rawPassP50
	det.OpsPerPass = len(passes[0].samples)
	det.PathsTotal = sum.paths / uint64(len(passes))
	put("setup_s", median(det.SetupRunsS))
	put("op_p50_ms", sum.p50)
	put("op_p99_ms", sum.p99)
	put("first_path_p50_ms", sum.firstP50)
	put("ops_per_s", sum.opsPerS)
	put("paths_per_s", sum.pathsPerS)
	put("peak_rss_mb", rss)
	put("write_p50_ms", median(writeMs))

	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  clients %d  closed loop\n", s.name, seed, det.Gomaxprocs, s.clients)
	fmt.Fprintf(w, "  graph %v\n", e.g0)
	fmt.Fprintf(w, "  calibration probe min %.3f median %.3f max %.3f ms over %d probes; timings are scaled to a probe of %.3f ms\n",
		det.ProbeMs[0], det.ProbeMs[1], det.ProbeMs[2], len(cal.probes), s.probeRefMs)
	if len(cal.copies) > 0 {
		fmt.Fprintf(w, "  copy probe (set-ups and writes) min %.3f median %.3f max %.3f ms over %d probes, scaled to %.3f ms\n",
			det.CopyProbeMs[0], det.CopyProbeMs[1], det.CopyProbeMs[2], len(cal.copies), s.copyRefMs)
	}
	fmt.Fprintf(w, "  set-up runs %.4f s, uncalibrated %.4f s (graph %.4f oracle %.4f engine+listener+first op %.4f of the last)\n",
		det.SetupRunsS, det.RawSetupRunsS, e.graphS, e.oracleS, e.engineS)
	fmt.Fprintf(w, "  passes %d  ops_measured %d  paths per pass %d  writes %d\n", det.Passes, det.OpsMeasured, det.PathsTotal, len(writeMs))
	fmt.Fprintf(w, "  per-pass op_p50_ms %.4f, uncalibrated %.4f\n", det.PassP50Ms, det.RawPassP50Ms)
	fmt.Fprintf(w, "  graph.scan_medges_per_s before %.1f after %.1f noisy %v\n", det.ScanBefore, det.ScanAfter, det.Noisy)
	fmt.Fprintf(w, "  bench.verify_s %.3f  attempted %d  failed %d  failed_frac %.6f\n", det.VerifyS, tl.attempted, tl.failed, float64(tl.failed)/float64(max(tl.attempted, 1)))
	for _, m := range tl.msgs {
		fmt.Fprintf(w, "  FAILED: %s\n", m)
	}
	printMetrics(w, endToEnd, res.Metrics)
	return res, det, nil
}

func printMetrics(w io.Writer, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		if m, ok := ms[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// p50 is the median raw latency of the pass's ops.
func (p pass) p50() float64 {
	lat := make([]float64, len(p.samples))
	for i, sm := range p.samples {
		lat[i] = sm.ms
	}
	return median(lat)
}

// err is the first error of the pass's ops.
func (p pass) err() error {
	for _, sm := range p.samples {
		if sm.err != nil {
			return sm.err
		}
	}
	return nil
}

// runPass streams every query once. kept, when non-nil, receives each
// query's paths (its slices are reused from pass to pass). With a
// calibrator the pass is one calibration window: it stops for a probe every
// probeEvery and all its timings share the window's factor; without, the
// factor is 1.
func runPass(eng server.Engine, s spec, queries []workload.Query, kept [][]pathenum.Path, tr *tracer, cal *calibrator) pass {
	p := pass{samples: make([]sample, 0, len(queries))}
	mark := 0
	if cal != nil {
		mark = cal.mark()
		cal.probe()
	}
	since := time.Now()
	for i, q := range queries {
		if cal != nil && time.Since(since) >= probeEvery {
			p.wall += time.Since(since).Seconds()
			cal.probe()
			since = time.Now()
		}
		var keep *[]pathenum.Path
		if kept != nil {
			kept[i] = kept[i][:0]
			keep = &kept[i]
		}
		sm := streamOp(eng, q, s.k, s.limit, keep, tr, int64(i+1))
		sm.query = i
		p.samples = append(p.samples, sm)
	}
	p.wall += time.Since(since).Seconds()
	f := 1.0
	if cal != nil {
		cal.probe()
		f = cal.factor(mark)
	}
	p.calibrate(f)
	return p
}

// calibrate sets the factor of the pass's timings.
func (p *pass) calibrate(f float64) {
	for i := range p.samples {
		p.samples[i].cal = f
	}
	p.calWall = p.wall * f
}

// measurePasses runs whole passes for about the given time: it stops when
// another pass would overshoot by more than it undershoots. Every pass
// starts from a collected heap, so that the garbage collector's cycles fall
// on the same ops from pass to pass.
func measurePasses(eng server.Engine, s spec, queries []workload.Query, kept [][]pathenum.Path, seconds float64, cal *calibrator) []pass {
	var passes []pass
	t0 := time.Now()
	for {
		runtime.GC()
		p0 := time.Now()
		passes = append(passes, runPass(eng, s, queries, kept, nil, cal))
		if time.Since(t0).Seconds()+time.Since(p0).Seconds()/2 >= seconds {
			return passes
		}
	}
}

// serveRun is serve_mixed's closed-loop clients: each has a keep-alive
// connection and its own endless script, which continue from one stretch
// of ops to the next.
type serveRun struct {
	clients []*client
	scripts []*script
	done    []int // ops issued so far, per client
}

func newServeRun(base string, s spec, g *pathenum.Graph, pairs []workload.Query, seed int64) *serveRun {
	r := &serveRun{done: make([]int, s.clients)}
	for c := 0; c < s.clients; c++ {
		r.clients = append(r.clients, newClient(base))
		r.scripts = append(r.scripts, newScript(s, g, pairs, seed, c))
	}
	return r
}

func (r *serveRun) close() {
	for _, cl := range r.clients {
		cl.close()
	}
}

// stretch lets every client issue ops until the duration is over or, when
// ops is positive, until it has issued that many. It returns when all
// clients have stopped, with their samples and the wall time in seconds.
func (r *serveRun) stretch(d time.Duration, ops int, readOnly bool, tr *tracer) ([]sample, float64) {
	perClient := make([][]sample, len(r.clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ops > 0 && i < ops || ops == 0 && time.Since(t0) < d; i++ {
				o := r.scripts[c].next(readOnly)
				r.done[c]++
				perClient[c] = append(perClient[c], r.clients[c].do(&o, nil, tr, int64(c)<<32|int64(r.done[c])))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	var all []sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	return all, wall
}

// warm issues ops read-only ops per client, untimed.
func (r *serveRun) warm(ops int) error {
	ss, _ := r.stretch(0, ops, true, nil)
	return pass{samples: ss}.err()
}

// measure runs the clients for the given time, cut into passes of
// servePass, each one calibration window. Every serveStretch the clients
// pause together, a background oracle rebuild is waited for, and the
// calibrator probes.
func (r *serveRun) measure(eng server.Engine, seconds float64, cal *calibrator) []pass {
	n := max(1, int(math.Round(seconds/servePass.Seconds())))
	each := time.Duration(seconds / float64(n) * float64(time.Second))
	passes := make([]pass, n)
	for i := range passes {
		p := &passes[i]
		mark := cal.mark()
		settle(eng)
		cal.probe()
		for p0 := time.Now(); time.Since(p0) < each; {
			ss, wall := r.stretch(min(serveStretch, each), 0, false, nil)
			p.samples = append(p.samples, ss...)
			p.wall += wall
			settle(eng)
			cal.probe()
		}
		p.calibrate(cal.factor(mark))
	}
	return passes
}

// settle waits for a background oracle rebuild the writes left behind, so
// that it does not run into whatever is measured next.
func settle(eng server.Engine) {
	if w, ok := eng.(interface{ WaitOracle(context.Context) error }); ok {
		_ = w.WaitOracle(context.Background()) // only fails on a cancelled context
	}
}

// writes is the write phase of an in-process workload: one calibration
// window of single-edge inserts. With freshWrites every insert goes into an
// engine of its own over the generated graph: an engine's inserts get slower
// with every edge inserted before (on tm by 4.5 ms on 90 ms each), so a
// series on one engine is a ramp and its median one sample of it, whereas
// first inserts are repeats of one operation. With a copyRefMs the window
// is calibrated by the copy probe. It returns the latencies as timed and
// calibrated.
func writes(e *env, s spec, edges []pathenum.Edge, tl *tally, cal *calibrator) (raw, scaled []float64, err error) {
	next := func() (server.Engine, error) { return e.eng, nil }
	if s.freshWrites {
		next = func() (server.Engine, error) { return s.newEngine(e.g0, pathenum.EngineConfig{}) }
	}
	mark, probe, factor := cal.bulk()
	if raw, err = writePhase(next, edges, tl, probe); err != nil {
		return nil, nil, err
	}
	f := factor(mark)
	for _, v := range raw {
		scaled = append(scaled, v*f)
	}
	return raw, scaled, nil
}

// writePhase times single-edge inserts through the engine's write path and
// checks that each is visible in the serving graph once acknowledged. next
// gives the engine of each insert: the same one every time, or a new one.
// The heap is collected before every insert: a publish leaves a whole
// snapshot as garbage, and whether the collector had run by the next one
// would otherwise decide the memory high-water mark. probe, when non-nil,
// runs before every insert and after the last: the phase is one calibration
// window, and its caller scales the latencies.
func writePhase(next func() (server.Engine, error), edges []pathenum.Edge, tl *tally, probe func()) ([]float64, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("write phase has no edges")
	}
	if probe == nil {
		probe = func() {}
	}
	var out []float64
	for _, e := range edges {
		eng, err := next()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		probe()
		t0 := time.Now()
		added, err := eng.Insert(e.From, e.To)
		out = append(out, ms(time.Since(t0)))
		switch {
		case err != nil:
			tl.op(fmt.Errorf("insert %d->%d: %w", e.From, e.To, err))
		case !added:
			tl.op(fmt.Errorf("insert %d->%d: reported as a duplicate of a new edge", e.From, e.To))
		case !eng.Graph().HasEdge(e.From, e.To):
			tl.op(fmt.Errorf("insert %d->%d: acknowledged but not visible in the serving graph", e.From, e.To))
		default:
			tl.op(nil)
		}
	}
	probe()
	return out, nil
}

// summary pools the samples of the measured passes.
type summary struct {
	ops                 int
	paths               uint64
	p50, p99, firstP50  float64
	opsPerS, pathsPerS  float64
	passP50, rawPassP50 []float64
}

// summarize computes the latency and throughput numbers, all calibrated.
// op_p50_ms and the two rates are medians over passes of the per-pass value
// (the pooled value when there is one pass), so that one disturbed pass
// does not move them; op_p99_ms is over the pooled samples. First-path
// latency is over ops that delivered a path: every op in-process, /paths
// ops behind the server.
func summarize(passes []pass, served bool) summary {
	var sum summary
	var all, firsts, opsPerS, pathsPerS []float64
	for _, p := range passes {
		var lat, raw []float64
		var paths uint64
		for _, sm := range p.samples {
			lat = append(lat, sm.ms*sm.cal)
			raw = append(raw, sm.ms)
			paths += sm.paths
			if sm.firstMs > 0 && (!served || sm.kind == opPaths) {
				firsts = append(firsts, sm.firstMs*sm.cal)
			}
		}
		sum.passP50 = append(sum.passP50, median(lat))
		sum.rawPassP50 = append(sum.rawPassP50, median(raw))
		opsPerS = append(opsPerS, float64(len(lat))/p.calWall)
		pathsPerS = append(pathsPerS, float64(paths)/p.calWall)
		sum.paths += paths
		all = append(all, lat...)
	}
	sum.ops = len(all)
	sum.opsPerS, sum.pathsPerS = median(opsPerS), median(pathsPerS)
	sum.p50 = median(sum.passP50)
	sum.p99 = percentile(all, 99)
	sum.firstP50 = median(firsts)
	return sum
}
