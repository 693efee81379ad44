package pathenum_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pathenum"
	"pathenum/internal/obs"
)

// metricsEngine builds a small diamond-graph engine with a shared
// registry for snapshot assertions.
func metricsEngine(t *testing.T, cfg pathenum.EngineConfig) (*pathenum.Engine, *pathenum.MetricsRegistry) {
	t.Helper()
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := pathenum.NewEngine(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, e.Metrics()
}

func TestMetricsExecuteAndStream(t *testing.T) {
	e, reg := metricsEngine(t, pathenum.EngineConfig{Workers: 2})
	q := pathenum.Query{S: 0, T: 3, K: 4}

	var emitted int
	if _, err := e.ExecuteWith(context.Background(), q, pathenum.Options{
		Emit: func(p pathenum.Path) bool { emitted++; return true },
	}); err != nil {
		t.Fatal(err)
	}
	if emitted == 0 {
		t.Fatal("emit never fired")
	}
	var streamed int
	for p, err := range e.Stream(context.Background(), pathenum.Request{S: 0, T: 3, K: 4}) {
		if err != nil {
			t.Fatal(err)
		}
		_ = p
		streamed++
	}
	if streamed != emitted {
		t.Fatalf("stream delivered %d paths, execute emitted %d", streamed, emitted)
	}

	snap := reg.Snapshot()
	// Both runs label the whole 4-vertex graph from both ends at most.
	if got := snap[`pathenum_bfs_visited_total`]; got < 4 || got > 16 {
		t.Errorf("pathenum_bfs_visited_total = %v after two runs on 4 vertices", got)
	}
	for series, want := range map[string]float64{
		`pathenum_requests_total{op="execute"}`:                 1,
		`pathenum_requests_total{op="stream"}`:                  1,
		`pathenum_request_duration_seconds{op="execute"}_count`: 1,
		`pathenum_request_duration_seconds{op="stream"}_count`:  1,
		`pathenum_first_path_seconds{op="execute"}_count`:       1,
		`pathenum_first_path_seconds{op="stream"}_count`:        1,
		`pathenum_request_errors_total{op="execute"}`:           0,
		`pathenum_paths_emitted_total`:                          float64(emitted + streamed),
		// Stage histograms are run-sampled 1-in-stageSample with the
		// first run always observed: two runs → one observation.
		`pathenum_stage_duration_seconds{stage="bfs"}_count`: 1,
		`pathenum_stage_sample_rate`:                         8,
		`pathenum_pool_workers`:                              2,
		`pathenum_graph_vertices`:                            4,
		`pathenum_graph_edges`:                               5,
	} {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// An invalid query is a terminal error on the stream surface.
	for _, err := range e.Stream(context.Background(), pathenum.Request{S: 0, T: 99, K: 3}) {
		if err == nil {
			t.Fatal("expected terminal error for out-of-range target")
		}
	}
	if got := reg.Snapshot()[`pathenum_request_errors_total{op="stream"}`]; got != 1 {
		t.Fatalf("stream errors = %v, want 1", got)
	}
}

func TestMetricsBatchSurfaces(t *testing.T) {
	e, reg := metricsEngine(t, pathenum.EngineConfig{Workers: 2})
	qs := []pathenum.Query{{S: 0, T: 3, K: 4}, {S: 0, T: 3, K: 4}, {S: 1, T: 3, K: 3}}
	if _, errs, _ := e.ExecuteBatch(context.Background(), qs, pathenum.Options{}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	for range e.StreamBatch(context.Background(), qs, pathenum.Options{}) {
	}
	snap := reg.Snapshot()
	// Both surfaces are one op: each call is one batch request.
	if got := snap[`pathenum_requests_total{op="batch"}`]; got != 2 {
		t.Fatalf("batch requests = %v, want 2", got)
	}
	if _, ok := snap[`pathenum_requests_total{op="stream_batch"}`]; ok {
		t.Fatal(`op="stream_batch" is registered; StreamBatch must count as op="batch"`)
	}
	if got := snap[`pathenum_batch_queries_total`]; got != 6 {
		t.Fatalf("batch queries = %v, want 6", got)
	}
	// Batch members run on the query spine but are the batch's request,
	// not requests of their own.
	if got := snap[`pathenum_requests_total{op="execute"}`]; got != 0 {
		t.Fatalf("execute requests = %v, want 0: batch members counted as single queries", got)
	}
	if got := snap[`pathenum_request_duration_seconds{op="batch"}_count`]; got != 2 {
		t.Fatalf("batch duration count = %v, want 2", got)
	}
	// Stage timings fold in once per unique execution — 2 unique from the
	// batch + 2 unique from the streaming batch — but the stage
	// histograms are run-sampled (1 in stageSample, first run always
	// observed), so four runs yield exactly one observation.
	if got := snap[`pathenum_stage_duration_seconds{stage="enumerate"}_count`]; got != 1 {
		t.Fatalf("enumerate stage count = %v, want 1 (sampled)", got)
	}
}

func TestMetricsWritePath(t *testing.T) {
	e, reg := metricsEngine(t, pathenum.EngineConfig{SnapshotEvery: 3})
	mustInsert := func(from, to pathenum.VertexID) {
		t.Helper()
		added, err := e.Insert(from, to)
		if err != nil || !added {
			t.Fatalf("insert (%d,%d): added=%v err=%v", from, to, added, err)
		}
	}
	mustInsert(1, 2)
	mustInsert(2, 1)
	snap := reg.Snapshot()
	if got := snap["pathenum_inserts_total"]; got != 2 {
		t.Fatalf("inserts = %v", got)
	}
	if got := snap["pathenum_pending_writes"]; got != 2 {
		t.Fatalf("pending writes = %v", got)
	}
	if got := snap["pathenum_insert_lag_seconds"]; got <= 0 {
		t.Fatalf("insert lag = %v, want > 0 with buffered writes", got)
	}
	if got := snap["pathenum_snapshots_published_total"]; got != 0 {
		t.Fatalf("publishes = %v before flush", got)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if got := snap["pathenum_snapshots_published_total"]; got != 1 {
		t.Fatalf("publishes = %v after flush", got)
	}
	if got := snap["pathenum_insert_publish_lag_seconds_count"]; got != 1 {
		t.Fatalf("publish lag observations = %v", got)
	}
	if got := snap["pathenum_publish_seconds_count"]; got != 1 {
		t.Fatalf("publish duration observations = %v", got)
	}
	if got := snap["pathenum_pending_writes"]; got != 0 {
		t.Fatalf("pending writes after flush = %v", got)
	}
	if got := snap["pathenum_insert_lag_seconds"]; got != 0 {
		t.Fatalf("insert lag after flush = %v", got)
	}
	if got := snap["pathenum_graph_epoch"]; got != 2 {
		t.Fatalf("epoch = %v, want 2 after two applied insertions", got)
	}
}

func TestMetricsExpositionValid(t *testing.T) {
	e, reg := metricsEngine(t, pathenum.EngineConfig{})
	if _, err := e.Execute(pathenum.Query{S: 0, T: 3, K: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("engine exposition invalid: %v\n%s", err, buf.String())
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE pathenum_request_duration_seconds histogram",
		"# TYPE pathenum_requests_total counter",
		"# TYPE pathenum_frontier_cache_hits_total counter",
		"# TYPE pathenum_pool_utilization gauge",
		"pathenum_graph_epoch 1",
		"pathenum_inserts_total 1",
		"# TYPE pathenum_publish_seconds histogram",
		"pathenum_publish_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsSharedRegistry verifies EngineConfig.Metrics lets a front
// end co-locate its series with the engine's on one registry.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := pathenum.NewMetricsRegistry()
	reg.Counter(obs.L("http_requests_total", "handler", "query"), "").Inc()
	e, got := metricsEngine(t, pathenum.EngineConfig{Metrics: reg})
	if got != reg {
		t.Fatal("engine did not adopt the shared registry")
	}
	if _, err := e.Execute(pathenum.Query{S: 0, T: 3, K: 4}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap[`http_requests_total{handler="query"}`] != 1 || snap[`pathenum_requests_total{op="execute"}`] != 1 {
		t.Fatalf("shared registry missing series: %v", snap)
	}
}
