package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathenum"
	"pathenum/internal/gen"
	"pathenum/internal/obs"
	"pathenum/internal/shard"
)

func TestMetricsEndpointCoversStack(t *testing.T) {
	ts := testServer(t, nil)
	// Exercise every layer once so the series exist with data: a query
	// with paths, a stream, a batch, a write.
	postQuery(t, ts, `{"s":0,"t":3,"k":3,"paths":true}`)
	ndjsonLines(t, ts, "/paths", `{"s":0,"t":3,"k":3}`)
	postBatch(t, ts, `{"queries":[{"s":0,"t":3,"k":3},{"s":1,"t":3,"k":3}]}`)
	resp, err := http.Post(ts.URL+"/insert", "application/json",
		strings.NewReader(`{"edges":[{"from":1,"to":2}],"flush":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	text := string(body)
	// The acceptance surface: request latency, first-path, stage
	// timings, cache, pool, epoch and write-path lag all present.
	for _, want := range []string{
		`pathenum_request_duration_seconds_count{op="execute"}`,
		`pathenum_request_duration_seconds_count{op="stream"}`,
		`pathenum_first_path_seconds_count{op="stream"}`,
		`pathenum_stage_duration_seconds_count{stage="bfs"}`,
		`pathenum_stage_duration_seconds_count{stage="enumerate"}`,
		"pathenum_frontier_cache_hits_total",
		"pathenum_frontier_cache_misses_total",
		"pathenum_pool_workers 2",
		"pathenum_pool_utilization",
		"pathenum_graph_epoch 1",
		"pathenum_inserts_total 1",
		"pathenum_insert_lag_seconds 0",
		"pathenum_snapshots_published_total 1",
		`pathenum_http_requests_total{handler="query",code="200"}`,
		`pathenum_http_request_duration_seconds_count{handler="paths"}`,
		"pathenum_http_inflight_requests",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsUnderConcurrency scrapes /metrics while streams, batches
// and writes are racing: every scrape must be valid exposition and the
// cumulative counters must be monotone scrape-over-scrape. Run with
// -race in CI.
func TestMetricsUnderConcurrency(t *testing.T) {
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, nil, Config{}).Handler())
	t.Cleanup(ts.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stop the workers before the test returns on any path, so none of
	// them reports into a finished test.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// post runs on the worker goroutines: failures are t.Error, not
	// t.Fatal.
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s %s: status %d", path, body, resp.StatusCode)
		}
	}
	workloads := []func(){
		func() { post("/query", `{"s":0,"t":3,"k":3,"paths":true}`) },
		func() { post("/paths", `{"s":0,"t":3,"k":3}`) },
		func() { post("/batch", `{"queries":[{"s":0,"t":3,"k":3},{"s":1,"t":3,"k":3}]}`) },
		func() { post("/insert", `{"edges":[{"from":1,"to":2},{"from":2,"to":1}]}`); post("/flush", `{}`) },
	}
	for _, work := range workloads {
		wg.Add(1)
		go func(work func()) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					work()
				}
			}
		}(work)
	}

	var lastRequests, lastPaths float64
	for i := 0; i < 25; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.ValidateExposition(body); err != nil {
			t.Fatalf("scrape %d invalid: %v", i, err)
		}
		snap := engine.Metrics().Snapshot()
		total := snap[`pathenum_requests_total{op="execute"}`] + snap[`pathenum_requests_total{op="stream"}`] +
			snap[`pathenum_requests_total{op="batch"}`]
		if total < lastRequests {
			t.Fatalf("requests went backwards: %v < %v", total, lastRequests)
		}
		if snap["pathenum_paths_emitted_total"] < lastPaths {
			t.Fatalf("paths went backwards: %v < %v", snap["pathenum_paths_emitted_total"], lastPaths)
		}
		lastRequests, lastPaths = total, snap["pathenum_paths_emitted_total"]
	}
}

func TestReadyzLivenessSplit(t *testing.T) {
	ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz = %d", resp.StatusCode)
	}
	var body struct {
		Ready         bool    `json:"ready"`
		Epoch         *uint64 `json:"epoch"`
		PendingWrites *int    `json:"pendingWrites"`
		Utilization   float64 `json:"utilization"`
		Workers       int     `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Ready || body.Epoch == nil || body.PendingWrites == nil || body.Workers != 2 {
		t.Fatalf("readyz body = %+v", body)
	}
}

// TestReadyzShedsWhenSaturated holds a stream open so the pool reports
// occupancy past a tiny shed threshold: /readyz must 503 with a reason
// while /healthz stays 200 — a saturated replica is alive, not ready.
func TestReadyzShedsWhenSaturated(t *testing.T) {
	g := gen.Layered(10, 5)
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, nil, Config{ShedUtilization: 0.4}).Handler())
	t.Cleanup(ts.Close)

	// Open a stream and read one line; the query stays in flight
	// (utilization 0.5 with 2 workers) until the body is closed.
	resp, err := http.Post(ts.URL+"/paths", "application/json", strings.NewReader(`{"s":0,"t":1,"k":6}`))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var shed struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(ready.Body).Decode(&shed); err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable || shed.Ready || shed.Reason == "" {
		t.Fatalf("saturated readyz = %d %+v, want 503 with reason", ready.StatusCode, shed)
	}
	live, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while saturated, want 200", live.StatusCode)
	}

	resp.Body.Close()
	// The disconnect cancels the stream; readiness recovers.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz did not recover after the stream ended")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestInsertFlushEndpoint(t *testing.T) {
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2, SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, nil, Config{}).Handler())
	t.Cleanup(ts.Close)

	post := func(path, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}

	// 1->2 is new; 0->1 is a duplicate; buffered by SnapshotEvery.
	resp, out := post("/insert", `{"edges":[{"from":1,"to":2},{"from":0,"to":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d: %v", resp.StatusCode, out)
	}
	if out["applied"].(float64) != 1 || out["ignored"].(float64) != 1 || out["pending"].(float64) != 1 {
		t.Fatalf("insert response = %v", out)
	}
	// Unknown vertex is a clean 400 with nothing applied.
	resp, _ = post("/insert", `{"edges":[{"from":1,"to":99}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown vertex insert = %d, want 400", resp.StatusCode)
	}
	// Flush publishes; the new edge becomes queryable (path 0-1-2).
	resp, out = post("/flush", `{}`)
	if resp.StatusCode != http.StatusOK || out["pending"].(float64) != 0 {
		t.Fatalf("flush = %d %v", resp.StatusCode, out)
	}
	_, qr := postQuery(t, ts, `{"s":0,"t":2,"k":2}`)
	if qr.Count != 2 { // 0->2 direct and 0->1->2
		t.Fatalf("post-insert count = %d, want 2", qr.Count)
	}
	// "flush":true publishes inline.
	resp, out = post("/insert", `{"edges":[{"from":2,"to":1}],"flush":true}`)
	if resp.StatusCode != http.StatusOK || out["pending"].(float64) != 0 {
		t.Fatalf("insert+flush = %d %v", resp.StatusCode, out)
	}
}

func TestAccessLogLines(t *testing.T) {
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ts := httptest.NewServer(New(engine, nil, Config{AccessLog: &buf}).Handler())
	t.Cleanup(ts.Close)

	postQuery(t, ts, `{"s":0,"t":3,"k":3,"paths":true}`)
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d access-log lines, want 2: %q", len(lines), buf.String())
	}
	var ok accessRecord
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if ok.ID == "" || ok.Method != "POST" || ok.Path != "/query" || ok.Status != 200 {
		t.Fatalf("line 1 = %+v", ok)
	}
	if ok.Plan == "" || ok.Paths != 2 || ok.Millis < 0 {
		t.Fatalf("line 1 missing run annotations: %+v", ok)
	}
	var bad accessRecord
	if err := json.Unmarshal([]byte(lines[1]), &bad); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if bad.Status != 400 || bad.ID == ok.ID {
		t.Fatalf("line 2 = %+v", bad)
	}
}

// TestStatsMatchesRegistry pins the /stats back-compat contract: the
// JSON shape predates the registry but is now assembled from it, so the
// two views must agree.
func TestStatsMatchesRegistry(t *testing.T) {
	ts := testServer(t, nil)
	postQuery(t, ts, `{"s":0,"t":3,"k":3}`)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Vertices      int        `json:"vertices"`
		Edges         int64      `json:"edges"`
		AvgDegree     float64    `json:"avgDegree"`
		Epoch         uint64     `json:"epoch"`
		FrontierCache cacheStats `json:"frontierCache"`
		Pool          poolStats  `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Vertices != 4 || stats.Edges != 5 || stats.AvgDegree != 1.25 {
		t.Fatalf("graph stats = %+v", stats)
	}
	if stats.Pool.Workers != 2 || stats.FrontierCache.Capacity <= 0 {
		t.Fatalf("pool/cache stats = %+v", stats)
	}
	if stats.FrontierCache.Misses == 0 {
		t.Fatal("cold query should have missed the frontier cache")
	}
}

// TestReadyzOracleRebuildNote: while a background oracle rebuild is in
// flight the replica stays ready (degraded capacity is not drained
// capacity) but /readyz carries the degraded note; once the rebuild
// lands the note disappears.
func TestReadyzOracleRebuildNote(t *testing.T) {
	g := gen.BarabasiAlbert(30000, 5, 121)
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2, OracleLandmarks: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, nil, Config{}).Handler())
	t.Cleanup(ts.Close)

	getReady := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Catch the degraded window: a publishing insert opens it, and the
	// 64-landmark build over 30k vertices keeps it open across an HTTP
	// round trip. Retry with fresh inserts in case a window closes early.
	caught := false
	for to := pathenum.VertexID(1); to <= 32 && !caught; to++ {
		if _, err := engine.Insert(0, to); err != nil {
			t.Fatal(err)
		}
		if engine.OracleLag() <= 0 {
			continue // rebuild already landed; open another window
		}
		code, body := getReady()
		if code != http.StatusOK {
			t.Fatalf("degraded readyz = %d, want 200 (degraded is not drained)", code)
		}
		if body["oracleDegraded"] != true {
			continue // window closed between the lag check and the GET
		}
		if lag, ok := body["oracleLagSeconds"].(float64); !ok || lag <= 0 {
			t.Fatalf("degraded readyz lag = %v, want > 0", body["oracleLagSeconds"])
		}
		caught = true
	}
	if !caught {
		t.Fatal("never observed a degraded readyz window across 32 inserts")
	}

	if err := engine.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, body := getReady()
	if _, present := body["oracleDegraded"]; present {
		t.Fatalf("readyz still carries the degraded note after rebuild: %v", body)
	}
}

// laggedEngine pins OracleLag so the shed threshold is testable without
// racing a real rebuild window.
type laggedEngine struct {
	*pathenum.Engine
	lag time.Duration
}

func (l *laggedEngine) OracleLag() time.Duration { return l.lag }

// TestReadyzShedsOnOracleLag: past Config.ShedOracleLag the replica
// stops reporting ready — a rebuild stuck that long is backpressure a
// load balancer should route around — and the shed counter ticks.
func TestReadyzShedsOnOracleLag(t *testing.T) {
	g := gen.BarabasiAlbert(60, 3, 5)
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lagged := &laggedEngine{Engine: engine}
	ts := httptest.NewServer(New(lagged, nil, Config{ShedOracleLag: 100 * time.Millisecond}).Handler())
	t.Cleanup(ts.Close)

	getReady := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Below the threshold: degraded note, still ready.
	lagged.lag = 50 * time.Millisecond
	code, body := getReady()
	if code != http.StatusOK || body["oracleDegraded"] != true {
		t.Fatalf("sub-threshold readyz = %d %v, want 200 with degraded note", code, body)
	}
	if engine.Metrics().Snapshot()["pathenum_oracle_lag_shed_total"] != 0 {
		t.Fatal("shed counter ticked below the threshold")
	}

	// Past the threshold: 503 with a reason, counter ticks.
	lagged.lag = 150 * time.Millisecond
	code, body = getReady()
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("lagged readyz = %d %v, want 503 not-ready", code, body)
	}
	if reason, _ := body["reason"].(string); !strings.Contains(reason, "oracle rebuild lag") {
		t.Fatalf("lagged readyz reason = %v", body["reason"])
	}
	if got := engine.Metrics().Snapshot()["pathenum_oracle_lag_shed_total"]; got != 1 {
		t.Fatalf("pathenum_oracle_lag_shed_total = %v, want 1", got)
	}

	// Recovery: lag clears, the replica is ready again.
	lagged.lag = 0
	if code, _ = getReady(); code != http.StatusOK {
		t.Fatalf("recovered readyz = %d, want 200", code)
	}
}

// TestServerMixedLoadWithOracleRebuilds drives the HTTP layer the way a
// read/write deployment does: 8 clients send 40 requests each, drawn
// 40/15/15/30 from /query, /paths, /batch and /insert, against an engine
// whose every publishing insert schedules a background oracle rebuild,
// so reads interleave with degraded windows (stale oracle dropped, fresh
// one not yet installed). Every response must be 200 and every /paths
// stream must close with a done line counting exactly the path lines it
// carried. Once the writes and the last rebuild have settled, fixed
// /query answers must equal pathenum.Count on the serving graph. CI runs
// it under -race (the name matches Rebuild).
func TestServerMixedLoadWithOracleRebuilds(t *testing.T) {
	const (
		clients  = 8
		requests = 40
		k        = 4
		limit    = 1000
	)
	d, err := gen.Lookup("ep")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Scale(0.1).Build()
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 4, OracleLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := pathenum.BuildOracle(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.SetOracle(oracle); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, nil, Config{}).Handler())
	t.Cleanup(ts.Close)
	n := g.NumVertices()
	pair := func(rng *rand.Rand) (int, int) {
		s, x := rng.Intn(n), rng.Intn(n-1)
		if x >= s {
			x++
		}
		return s, x
	}

	// post returns the body of a 200 response; anything else is reported
	// (t.Error: it runs on the client goroutines) and returns nil.
	post := func(path, body string) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return nil
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("POST %s: reading body: %v", path, err)
			return nil
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s %s: status %d: %s", path, body, resp.StatusCode, out)
			return nil
		}
		return out
	}
	// checkStream verifies one /paths body: path lines, then exactly one
	// done line whose count equals the number of path lines.
	checkStream := func(req string, body []byte) {
		var paths, dones int
		var count uint64
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var line struct {
				Path  []int64 `json:"path"`
				Done  bool    `json:"done"`
				Count uint64  `json:"count"`
				Error string  `json:"error"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Errorf("/paths %s: bad line %q: %v", req, sc.Bytes(), err)
				return
			}
			switch {
			case line.Error != "":
				t.Errorf("/paths %s: error line %q", req, line.Error)
				return
			case line.Done:
				dones++
				count = line.Count
			case dones > 0:
				t.Errorf("/paths %s: path line after the done line", req)
				return
			default:
				if len(line.Path) < 2 || len(line.Path) > k+1 {
					t.Errorf("/paths %s: path %v outside 1..%d hops", req, line.Path, k)
				}
				paths++
			}
		}
		if dones != 1 || count != uint64(paths) {
			t.Errorf("/paths %s: %d done lines, count %d, %d path lines", req, dones, count, paths)
		}
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < requests; i++ {
				switch u := rng.Intn(100); {
				case u < 40:
					s, x := pair(rng)
					post("/query", fmt.Sprintf(`{"s":%d,"t":%d,"k":%d,"limit":%d}`, s, x, k, limit))
				case u < 55:
					s, x := pair(rng)
					req := fmt.Sprintf(`{"s":%d,"t":%d,"k":%d,"limit":%d}`, s, x, k, limit)
					if body := post("/paths", req); body != nil {
						checkStream(req, body)
					}
				case u < 70:
					qs := make([]string, 4)
					for j := range qs {
						s, x := pair(rng)
						qs[j] = fmt.Sprintf(`{"s":%d,"t":%d,"k":%d}`, s, x, k)
					}
					post("/batch", fmt.Sprintf(`{"queries":[%s],"limit":%d}`, strings.Join(qs, ","), limit))
				default:
					post("/insert", fmt.Sprintf(`{"edges":[{"from":%d,"to":%d}]}`, rng.Intn(n), rng.Intn(n)))
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := engine.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if engine.Oracle() == nil || engine.OracleLag() != 0 {
		t.Fatalf("after WaitOracle: oracle installed %v, lag %v; want the final snapshot's oracle",
			engine.Oracle() != nil, engine.OracleLag())
	}
	final := engine.Graph()
	if final.Epoch() == 0 {
		t.Fatal("no insert was published")
	}
	t.Logf("epoch %d after the load, %v oracle rebuilds", final.Epoch(),
		engine.Metrics().Snapshot()["pathenum_oracle_rebuilds_total"])
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		s, x := pair(rng)
		want, err := pathenum.Count(final, pathenum.Query{S: pathenum.VertexID(s), T: pathenum.VertexID(x), K: k})
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		body := post("/query", fmt.Sprintf(`{"s":%d,"t":%d,"k":%d}`, s, x, k))
		if body == nil {
			t.FailNow()
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Count != want || !qr.Completed {
			t.Errorf("/query %d->%d k=%d = %+v, want %d paths (pathenum.Count on epoch %d)",
				s, x, k, qr, want, final.Epoch())
		}
	}
}

// TestServerServesShardEngine pins the Engine interface: the HTTP layer
// must serve a sharded engine through the same mux, cross-shard queries
// included.
func TestServerServesShardEngine(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 9)
	reg := pathenum.NewMetricsRegistry()
	eng, err := shard.New(g, 2, shard.Config{Engine: pathenum.EngineConfig{Workers: 2, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil, Config{}).Handler())
	t.Cleanup(ts.Close)

	// Find one cross-shard pair with a non-empty answer.
	var q pathenum.Query
	found := false
	for s := 0; s < 200 && !found; s++ {
		for tt := 0; tt < 200 && !found; tt++ {
			if s == tt || eng.Owner(pathenum.VertexID(s)) == eng.Owner(pathenum.VertexID(tt)) {
				continue
			}
			cand := pathenum.Query{S: pathenum.VertexID(s), T: pathenum.VertexID(tt), K: 4}
			if c, cerr := pathenum.Count(g, cand); cerr == nil && c > 0 {
				q, found = cand, true
			}
		}
	}
	if !found {
		t.Fatal("no cross-shard query with results")
	}
	want, err := pathenum.Count(g, q)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"s":%d,"t":%d,"k":%d}`, q.S, q.T, q.K)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Count     uint64 `json:"count"`
		Completed bool   `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Count != want || !qr.Completed {
		t.Fatalf("sharded /query = %d %+v, want %d paths", resp.StatusCode, qr, want)
	}

	// One scrape covers the shard layer too.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mbody, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"pathenum_shard_count", "pathenum_shard_cross_queries_total"} {
		if !bytes.Contains(mbody, []byte(series)) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}
