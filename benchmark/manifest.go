package main

// metricDef is one metric of the benchmark contract. Bound is the share of
// the parent's median by which an end-to-end metric may get worse before a
// change is rejected; per-layer metrics have none. Exact marks per-layer
// metrics that are counts of a fixed query set: they repeat exactly for a
// seed, so -compare reports them as counts, not as speed-ups.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"-"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. Failures are not a metric here because the contract
// wants metrics that are never 0: they travel as the attempted/failed
// counts of the result line, and any failed op fails the run. Each bound is
// about three times the widest spread (quartile distance over median) the
// metric showed over ten seeds on any workload when the baseline was taken
// (baseline/spread_seeds1-10.txt), and at most the contract's 0.25.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "op_p99_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "first_path_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "paths_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced run. The
// README's interaction table says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "graph.build_s", Unit: "s", Better: lower},
	{Name: "landmark.build_s", Unit: "s", Better: lower},
	{Name: "shard.new_s", Unit: "s", Better: lower},
	{Name: "graph.scan_medges_per_s", Unit: "1/s", Better: higher},
	{Name: "core.bfs.p50_ms", Unit: "ms", Better: lower},
	{Name: "core.index.p50_ms", Unit: "ms", Better: lower},
	{Name: "core.prep.us_per_indexed_vertex", Unit: "us", Better: lower},
	{Name: "core.index.vertices_mean", Unit: "count", Better: lower, Exact: true},
	{Name: "core.index.edges_mean", Unit: "count", Better: lower, Exact: true},
	{Name: "core.estimator.p50_ms", Unit: "ms", Better: lower},
	{Name: "core.plan.join_frac", Unit: "frac", Better: higher, Exact: true},
	{Name: "core.estimator.qerror_p50", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.estimator.qerror_p95", Unit: "ratio", Better: lower, Exact: true},
	{Name: "core.dfs.paths_per_s", Unit: "1/s", Better: higher},
	{Name: "core.join.paths_per_s", Unit: "1/s", Better: higher},
	{Name: "core.enum.edges_per_path", Unit: "count", Better: lower, Exact: true},
	{Name: "core.enum.invalid_per_path", Unit: "count", Better: lower, Exact: true},
	{Name: "core.session.run_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.session.stream_tax_ms", Unit: "ms", Better: lower},
	{Name: "core.session.stream_paths_per_s", Unit: "1/s", Better: higher},
	{Name: "core.session.allocs_per_path", Unit: "count", Better: lower},
	{Name: "core.parallel.p2_paths_per_s", Unit: "1/s", Better: higher},
	{Name: "engine.execute_tax_ms", Unit: "ms", Better: lower},
	{Name: "engine.stream_tax_ms", Unit: "ms", Better: lower},
	{Name: "engine.cache_miss_tax_ms", Unit: "ms", Better: lower},
	{Name: "engine.allocs_per_op", Unit: "count", Better: lower},
	{Name: "engine.alloc_kb_per_op", Unit: "KB", Better: lower},
	{Name: "cache.hit_ratio", Unit: "frac", Better: higher},
	{Name: "cache.evictions", Unit: "count", Better: lower},
	{Name: "cache.invalidations", Unit: "count", Better: lower},
	{Name: "cache.rejected", Unit: "count", Better: lower},
	{Name: "cache.resident_mb", Unit: "MB", Better: lower},
	{Name: "batch.bfs_saved_frac", Unit: "frac", Better: higher},
	{Name: "batch.bfs_run_per_query", Unit: "count", Better: lower},
	{Name: "server.batch.p50_ms", Unit: "ms", Better: lower},
	{Name: "engine.insert.p50_ms", Unit: "ms", Better: lower},
	{Name: "engine.oracle_lag_max_ms", Unit: "ms", Better: lower},
	{Name: "server.insert.p50_ms", Unit: "ms", Better: lower},
	{Name: "mem.resident_peak_mb", Unit: "MB", Better: lower},
	{Name: "mem.join_fallbacks", Unit: "count", Better: lower},
	{Name: "shard.p1_tax_frac", Unit: "frac", Better: lower},
	{Name: "shard.p2.intra_p50_ms", Unit: "ms", Better: lower},
	{Name: "shard.p2.cross_p50_ms", Unit: "ms", Better: lower},
	{Name: "shard.cross_over_single", Unit: "ratio", Better: lower},
	{Name: "server.query.p50_ms", Unit: "ms", Better: lower},
	{Name: "server.paths.p50_ms", Unit: "ms", Better: lower},
	{Name: "server.paths.first_line_p50_ms", Unit: "ms", Better: lower},
	{Name: "server.paths.bytes_per_path", Unit: "B", Better: lower},
	{Name: "server.http_tax_ms", Unit: "ms", Better: lower},
	{Name: "obs.scrape_p50_ms", Unit: "ms", Better: lower},
	{Name: "trace.overhead_frac", Unit: "frac", Better: lower},
}

// manifest is BENCHMARK.json; `-manifest` prints it and a test keeps the
// committed file equal to it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range specs {
		m.Workloads = append(m.Workloads, workloadDef{Name: s.name, Why: s.why})
	}
	return m
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
