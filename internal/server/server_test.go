package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathenum"
	"pathenum/internal/gen"
	"pathenum/internal/shard"
)

// testServer serves the diamond graph 0 -> {1,2} -> 3 plus 3 -> 0.
func testServer(t *testing.T, orig []int64) *httptest.Server {
	t.Helper()
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// CacheAdmitDegree 1: every vertex of the tiny test graph sits below
	// the default admission degree; these tests exercise cache serving,
	// not admission policy.
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, orig, Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, queryResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var qr queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, qr
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["vertices"].(float64) != 4 || stats["edges"].(float64) != 5 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestQueryBasic(t *testing.T) {
	ts := testServer(t, nil)
	resp, qr := postQuery(t, ts, `{"s":0,"t":3,"k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if qr.Count != 2 || !qr.Completed {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Plan == "" || qr.Millis < 0 {
		t.Fatalf("missing plan/timing: %+v", qr)
	}
}

func TestQueryWithPaths(t *testing.T) {
	ts := testServer(t, nil)
	_, qr := postQuery(t, ts, `{"s":0,"t":3,"k":3,"paths":true}`)
	if len(qr.Paths) != 2 {
		t.Fatalf("paths = %v", qr.Paths)
	}
	for _, p := range qr.Paths {
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Fatalf("bad path %v", p)
		}
	}
}

func TestQueryMethods(t *testing.T) {
	ts := testServer(t, nil)
	for _, m := range []string{"auto", "dfs", "join"} {
		_, qr := postQuery(t, ts, `{"s":0,"t":3,"k":3,"method":"`+m+`"}`)
		if qr.Count != 2 {
			t.Fatalf("method %s: count = %d", m, qr.Count)
		}
	}
}

func TestQueryLimit(t *testing.T) {
	ts := testServer(t, nil)
	_, qr := postQuery(t, ts, `{"s":0,"t":3,"k":3,"limit":1}`)
	if qr.Count != 1 || qr.Completed {
		t.Fatalf("limit response = %+v", qr)
	}
}

func TestQueryErrors(t *testing.T) {
	ts := testServer(t, nil)
	cases := []string{
		`not json`,
		`{"s":0,"t":0,"k":3}`,              // s == t
		`{"s":0,"t":3,"k":0}`,              // k < 1
		`{"s":99,"t":3,"k":3}`,             // unknown vertex
		`{"s":0,"t":3,"k":3,"method":"x"}`, // bad method
		`{"s":0,"t":3,"k":3,"timeout":"zzz"}`,
	}
	for _, body := range cases {
		resp, _ := postQuery(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestQueryRemappedIDs(t *testing.T) {
	// Original ids 100,101,102,103 map to dense 0..3.
	ts := testServer(t, []int64{100, 101, 102, 103})
	resp, qr := postQuery(t, ts, `{"s":100,"t":103,"k":3,"paths":true}`)
	if resp.StatusCode != http.StatusOK || qr.Count != 2 {
		t.Fatalf("remapped query: status=%d %+v", resp.StatusCode, qr)
	}
	for _, p := range qr.Paths {
		if p[0] != 100 || p[len(p)-1] != 103 {
			t.Fatalf("paths must use original ids: %v", p)
		}
	}
	// Dense ids are not valid raw ids here.
	resp, _ = postQuery(t, ts, `{"s":0,"t":3,"k":3}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense id should 400, got %d", resp.StatusCode)
	}
}

func TestQueryConcurrent(t *testing.T) {
	ts := testServer(t, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"s":0,"t":3,"k":3}`))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var qr queryResponse
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				errs <- err
				return
			}
			if qr.Count != 2 {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryPathsCapStopsEnumeration: once the materialization cap is hit,
// the run itself stops (Options.Limit is set coherently), so the response
// reports exactly the cap and Completed=false instead of counting on.
func TestQueryPathsCapStopsEnumeration(t *testing.T) {
	g := gen.Layered(5, 3) // 125 paths 0 -> 1 within k=4
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, nil, Config{MaxPaths: 3})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	resp, qr := postQuery(t, ts, `{"s":0,"t":1,"k":4,"paths":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if qr.Count != 3 || len(qr.Paths) != 3 || qr.Completed {
		t.Fatalf("capped paths response: %+v", qr)
	}
	// An explicit limit below the cap still wins.
	_, qr = postQuery(t, ts, `{"s":0,"t":1,"k":4,"paths":true,"limit":2}`)
	if qr.Count != 2 || len(qr.Paths) != 2 {
		t.Fatalf("explicit limit response: %+v", qr)
	}
}

// TestQueryContextCancellation: cancelling the request context of an
// in-flight POST /query (a client disconnect) stops enumeration before
// natural completion — the handler returns promptly with completed=false.
func TestQueryContextCancellation(t *testing.T) {
	g := gen.Layered(30, 5) // 30^5 ~ 24M paths: far beyond the cancel window
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, nil, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	req := httptest.NewRequest(http.MethodPost, "/query",
		strings.NewReader(`{"s":0,"t":1,"k":6,"method":"dfs"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.handleQuery(rec, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d body %s", rec.Code, rec.Body.String())
	}
	var qr queryResponse
	if err := json.NewDecoder(rec.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Completed {
		t.Fatal("cancelled request must not run to completion")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("handler took %v after cancellation", elapsed)
	}
}

type testBatchResponse struct {
	Results []batchResult `json:"results"`
	Millis  float64       `json:"ms"`
	Stats   *batchStats   `json:"stats"`
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, testBatchResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var br testBatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
	}
	return resp, br
}

func TestBatchBasic(t *testing.T) {
	ts := testServer(t, nil)
	resp, br := postBatch(t, ts, `{"queries":[{"s":0,"t":3,"k":3},{"s":1,"t":3,"k":3},{"s":3,"t":1,"k":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(br.Results) != 3 {
		t.Fatalf("results = %v", br.Results)
	}
	wantCounts := []uint64{2, 1, 1} // 3->0->1 within 2 hops
	for i, want := range wantCounts {
		r := br.Results[i]
		if r.Error != "" || r.Count != want || !r.Completed {
			t.Fatalf("slot %d: %+v, want count %d", i, r, want)
		}
	}
}

// TestBatchStats: the default /batch path runs ExecuteBatch and reports
// what it folded and saved — duplicates answered once, so fewer BFS passes
// than the naive fan-out.
func TestBatchStats(t *testing.T) {
	ts := testServer(t, nil)
	// Two duplicates of (0,3,3) plus a third query sharing source 0.
	resp, br := postBatch(t, ts, `{"queries":[{"s":0,"t":3,"k":3},{"s":0,"t":3,"k":3},{"s":0,"t":1,"k":3}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if br.Stats == nil {
		t.Fatal("default batch must report stats")
	}
	if br.Stats.Queries != 3 || br.Stats.Deduped != 1 || br.Stats.Unique != 2 {
		t.Fatalf("stats = %+v, want Queries=3 Deduped=1 Unique=2", br.Stats)
	}
	if br.Stats.BFSPassesNaive != 6 || br.Stats.BFSPassesSaved < 2 {
		t.Fatalf("stats = %+v, want 6 naive passes with the duplicate's 2 saved", br.Stats)
	}
	// Duplicate slots both answer.
	if br.Results[0].Count != br.Results[1].Count || br.Results[0].Count == 0 {
		t.Fatalf("duplicate slots disagree: %+v", br.Results)
	}
}

// TestBatchStatsTwoSided: the wire stats of a batch whose queries share
// endpoints on both sides reconcile — run + saved = naive, one cache
// lookup per side — and a repeat of it runs no more passes than the first.
func TestBatchStatsTwoSided(t *testing.T) {
	ts := testServer(t, nil)
	body := `{"queries":[{"s":0,"t":3,"k":3},{"s":0,"t":1,"k":3},{"s":1,"t":3,"k":3}]}`
	var runs []int
	for range 2 {
		resp, br := postBatch(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		st := br.Stats
		if st == nil {
			t.Fatal("default batch must report stats")
		}
		if st.BFSPassesNaive != 6 || st.BFSPassesRun+st.BFSPassesSaved != st.BFSPassesNaive {
			t.Fatalf("stats = %+v, want run + saved = naive = 6", st)
		}
		if st.CacheHits+st.CacheMisses != 2*st.Unique {
			t.Fatalf("stats = %+v, want one cache lookup per side", st)
		}
		runs = append(runs, st.BFSPassesRun)
	}
	if runs[1] > runs[0] {
		t.Fatalf("repeat batch ran %d passes, first %d", runs[1], runs[0])
	}
}

// TestBatchIgnoresNaiveField: the retired "naive" field is an unknown
// field now, so an old client still gets the deduped answer, with stats,
// in both wire forms.
func TestBatchIgnoresNaiveField(t *testing.T) {
	ts := testServer(t, nil)
	queries := `[{"s":0,"t":3,"k":3},{"s":1,"t":3,"k":3},{"s":0,"t":3,"k":3}]`
	resp, br := postBatch(t, ts, `{"naive":true,"queries":`+queries+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	streamed, stats := postBatchStream(t, ts, `{"stream":true,"naive":true,"queries":`+queries+`}`)
	for form, got := range map[string]struct {
		results []batchResult
		stats   *batchStats
	}{"json": {br.Results, br.Stats}, "ndjson": {streamed, stats}} {
		if got.stats == nil || got.stats.Deduped != 1 || got.stats.Unique != 2 {
			t.Fatalf("%s stats = %+v, want Deduped=1 Unique=2", form, got.stats)
		}
		if got.results[0].Count != 2 || got.results[1].Count != 1 || got.results[2].Count != 2 {
			t.Fatalf("%s counts wrong: %+v", form, got.results)
		}
	}
}

// postBatchStream posts a "stream":true /batch body and collects its
// NDJSON lines back into request order, with the done line's stats.
func postBatchStream(t *testing.T, ts *httptest.Server, body string) ([]batchResult, *batchStats) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out []batchResult
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line struct {
			Index int `json:"index"`
			batchResult
			Done  bool        `json:"done"`
			Stats *batchStats `json:"stats"`
		}
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			return out, line.Stats
		}
		for len(out) <= line.Index {
			out = append(out, batchResult{})
		}
		out[line.Index] = line.batchResult
	}
	t.Fatal("stream ended without a done line")
	return nil, nil
}

// TestShardedBatchStats: /batch over a 2-shard engine answers one batch —
// a cross-shard query, an intra-shard one, a duplicate and an s == t
// query — with the same per-slot counts in both wire forms, and both
// report the s == t query as invalid and the duplicate as deduped.
func TestShardedBatchStats(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 9)
	eng, err := shard.New(g, 2, shard.Config{Engine: pathenum.EngineConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, nil, Config{}).Handler())
	t.Cleanup(ts.Close)
	var cross, intra *pathenum.Query
	for s := 0; s < 200 && (cross == nil || intra == nil); s++ {
		for x := 0; x < 200; x++ {
			q := pathenum.Query{S: pathenum.VertexID(s), T: pathenum.VertexID(x), K: 4}
			if c, cerr := pathenum.Count(g, q); s == x || cerr != nil || c == 0 {
				continue
			}
			switch same := eng.Owner(q.S) == eng.Owner(q.T); {
			case same && intra == nil:
				intra = &q
			case !same && cross == nil:
				cross = &q
			}
		}
	}
	if cross == nil || intra == nil {
		t.Fatal("fixture: no cross- and intra-shard query with results")
	}
	batch := []pathenum.Query{*cross, *intra, *cross, {S: intra.S, T: intra.S, K: 4}}
	var sb strings.Builder
	for i, q := range batch {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"s":%d,"t":%d,"k":%d}`, q.S, q.T, q.K)
	}
	queries := "[" + sb.String() + "]"
	resp, br := postBatch(t, ts, `{"queries":`+queries+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	streamed, stats := postBatchStream(t, ts, `{"stream":true,"queries":`+queries+`}`)
	for form, got := range map[string]struct {
		results []batchResult
		stats   *batchStats
	}{"json": {br.Results, br.Stats}, "ndjson": {streamed, stats}} {
		if got.stats == nil || got.stats.Queries != 4 || got.stats.Invalid != 1 || got.stats.Deduped != 1 || got.stats.Unique != 2 {
			t.Fatalf("%s stats = %+v, want Queries=4 Invalid=1 Deduped=1 Unique=2", form, got.stats)
		}
		if len(got.results) != len(batch) || got.results[3].Error == "" {
			t.Fatalf("%s results = %+v, want the s == t slot to carry an error", form, got.results)
		}
		for i, q := range batch[:3] {
			want, err := pathenum.Count(g, q)
			if err != nil {
				t.Fatal(err)
			}
			if r := got.results[i]; r.Error != "" || r.Count != want || !r.Completed {
				t.Fatalf("%s slot %d (%v) = %+v, want %d paths", form, i, q, r, want)
			}
		}
	}
}

// TestBatchPerQueryErrors: a bad query fills its slot without failing the
// batch.
func TestBatchPerQueryErrors(t *testing.T) {
	ts := testServer(t, nil)
	resp, br := postBatch(t, ts, `{"queries":[{"s":0,"t":3,"k":3},{"s":99,"t":3,"k":3},{"s":0,"t":0,"k":3}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if br.Results[0].Error != "" || br.Results[0].Count != 2 {
		t.Fatalf("valid slot: %+v", br.Results[0])
	}
	if br.Results[1].Error == "" {
		t.Fatal("unknown vertex must error its slot")
	}
	if br.Results[2].Error == "" {
		t.Fatal("s==t must error its slot")
	}
	// Stats reconcile with the request: all 3 slots counted, the two
	// rejected ones as invalid.
	if br.Stats == nil || br.Stats.Queries != 3 || br.Stats.Invalid != 2 {
		t.Fatalf("stats = %+v, want Queries=3 Invalid=2", br.Stats)
	}
}

// TestBatchRejectsPerQueryOptions: options are batch-wide; a per-query
// override errors its slot loudly instead of being silently dropped.
func TestBatchRejectsPerQueryOptions(t *testing.T) {
	ts := testServer(t, nil)
	_, br := postBatch(t, ts, `{"queries":[{"s":0,"t":3,"k":3,"limit":1},{"s":0,"t":3,"k":3}]}`)
	if br.Results[0].Error == "" {
		t.Fatal("per-query limit must error its slot")
	}
	if br.Results[1].Error != "" || br.Results[1].Count != 2 {
		t.Fatalf("clean slot must still run: %+v", br.Results[1])
	}
}

// TestBatchSharedOptions: batch-wide limit applies to every query.
func TestBatchSharedOptions(t *testing.T) {
	ts := testServer(t, nil)
	_, br := postBatch(t, ts, `{"queries":[{"s":0,"t":3,"k":3},{"s":0,"t":3,"k":3}],"limit":1,"method":"dfs"}`)
	for i, r := range br.Results {
		if r.Count != 1 || r.Completed {
			t.Fatalf("slot %d: %+v, want limited run", i, r)
		}
	}
}

func TestBatchErrors(t *testing.T) {
	ts := testServer(t, nil)
	for _, body := range []string{
		`not json`,
		`{"queries":[]}`,
		`{"queries":[{"s":0,"t":3,"k":3}],"method":"x"}`,
		`{"queries":[{"s":0,"t":3,"k":3}],"timeout":"zzz"}`,
	} {
		resp, _ := postBatch(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /query must not succeed")
	}
}

// TestStatsReportsEpochAndCache: /stats exposes the graph epoch and the
// frontier-cache counters services watch for hit-rate and invalidations.
func TestStatsReportsEpochAndCache(t *testing.T) {
	ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Epoch         *uint64     `json:"epoch"`
		FrontierCache *cacheStats `json:"frontierCache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Epoch == nil || *stats.Epoch != 0 {
		t.Fatalf("epoch = %v, want 0", stats.Epoch)
	}
	if stats.FrontierCache == nil || stats.FrontierCache.Capacity <= 0 {
		t.Fatalf("frontierCache = %+v", stats.FrontierCache)
	}
}

// TestBatchRepeatServedFromCache: the second POST of an identical batch is
// the repeat-hub scenario — the response stats must show every BFS side
// served from the frontier cache (bfsPassesRun == 0).
func TestBatchRepeatServedFromCache(t *testing.T) {
	ts := testServer(t, nil)
	body := `{"queries":[{"s":0,"t":3,"k":3},{"s":1,"t":3,"k":3},{"s":2,"t":3,"k":3}]}`
	_, cold := postBatch(t, ts, body)
	if cold.Stats == nil || cold.Stats.BFSPassesRun == 0 {
		t.Fatalf("cold stats = %+v, want BFS passes run", cold.Stats)
	}
	_, warm := postBatch(t, ts, body)
	if warm.Stats == nil {
		t.Fatal("warm batch must report stats")
	}
	if warm.Stats.BFSPassesRun != 0 || warm.Stats.CacheHits == 0 {
		t.Fatalf("warm stats = %+v, want bfsPassesRun=0 with cache hits", warm.Stats)
	}
	for i := range cold.Results {
		if warm.Results[i].Count != cold.Results[i].Count {
			t.Fatalf("slot %d: warm count %d != cold %d", i, warm.Results[i].Count, cold.Results[i].Count)
		}
	}
}

// --- streaming endpoints ---

// ndjsonLines posts body to path and returns the decoded NDJSON lines.
func ndjsonLines(t *testing.T, ts *httptest.Server, path, body string) []map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, ndjsonContentType)
	}
	var lines []map[string]any
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line map[string]any
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestPathsStreamNDJSON: /paths streams one {"path":...} line per result
// plus a trailing {"done":true,...} summary, in the input file's raw ids.
func TestPathsStreamNDJSON(t *testing.T) {
	ts := testServer(t, []int64{10, 11, 12, 13})
	lines := ndjsonLines(t, ts, "/paths", `{"s":10,"t":13,"k":3}`)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 paths + done: %v", len(lines), lines)
	}
	paths := map[string]bool{}
	for _, line := range lines[:2] {
		raw, ok := line["path"].([]any)
		if !ok {
			t.Fatalf("path line = %v", line)
		}
		key := ""
		for _, v := range raw {
			key += "," + strings.TrimSuffix(strings.TrimPrefix(jsonNum(t, v), " "), " ")
		}
		paths[key] = true
	}
	if !paths[",10,11,13"] || !paths[",10,12,13"] {
		t.Fatalf("paths = %v", paths)
	}
	done := lines[2]
	if done["done"] != true || done["count"].(float64) != 2 || done["completed"] != true {
		t.Fatalf("done line = %v", done)
	}
	if done["plan"] == "" || done["ms"].(float64) < 0 {
		t.Fatalf("done line missing plan/ms: %v", done)
	}
}

// TestPathsWireIdentity: the hand-appended /paths lines are byte for byte
// what encoding/json writes for the same paths — the encoder left the
// route, the wire format did not. Checked on the response body itself, over
// remapped ids that are large, negative and zero (TestQueryRemappedIDs'
// graph) and over a body long enough to span many chunks.
func TestPathsWireIdentity(t *testing.T) {
	type pathLine struct {
		Path []int64 `json:"path"`
	}
	check := func(ts *httptest.Server, body string, wantPaths int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/paths", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
		lines := bytes.SplitAfter(got, []byte("\n"))
		if len(lines) != wantPaths+2 || len(lines[wantPaths+1]) != 0 { // paths, done line, nothing after it
			t.Fatalf("%d lines in the body, want %d paths and the done line", len(lines)-1, wantPaths)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, line := range lines[:wantPaths] {
			var pl pathLine
			if err := json.Unmarshal(line, &pl); err != nil || len(pl.Path) < 2 {
				t.Fatalf("path line %q: %v", line, err)
			}
			if err := enc.Encode(pl); err != nil {
				t.Fatal(err)
			}
		}
		if head := got[:len(got)-len(lines[wantPaths])]; !bytes.Equal(head, want.Bytes()) {
			t.Fatalf("path lines differ from json.Encoder's:\n got %q\nwant %q", head, want.Bytes())
		}
		var done doneLine
		if err := json.Unmarshal(lines[wantPaths], &done); err != nil || !done.Done || done.Count != uint64(wantPaths) {
			t.Fatalf("done line %q: %v", lines[wantPaths], err)
		}
	}
	orig := []int64{math.MinInt64, -7, math.MaxInt64, 0}
	ts := testServer(t, orig)
	check(ts, `{"s":-9223372036854775808,"t":0,"k":3}`, 2)
	// The appender alone, on the ids no request can spell in a float-free way.
	srv := &Server{orig: orig}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(pathLine{Path: []int64{math.MinInt64, math.MaxInt64, -7, 0}})
	if got := srv.appendPathLine(nil, pathenum.Path{0, 2, 1, 3}); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendPathLine = %q, want %q", got, want.Bytes())
	}
	// s -> three full layers of 8 -> t: 512 lines with 5 ids each, several chunks.
	const width, depth = 8, 3
	var edges []pathenum.Edge
	layer := func(l, i int) pathenum.VertexID { return pathenum.VertexID(1 + l*width + i) }
	for i := 0; i < width; i++ {
		edges = append(edges, pathenum.Edge{From: 0, To: layer(0, i)}, pathenum.Edge{From: layer(depth-1, i), To: 1 + width*depth})
		for l := 0; l+1 < depth; l++ {
			for j := 0; j < width; j++ {
				edges = append(edges, pathenum.Edge{From: layer(l, i), To: layer(l+1, j)})
			}
		}
	}
	g, err := pathenum.NewGraph(2+width*depth, edges)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	big := httptest.NewServer(New(engine, nil, Config{}).Handler())
	defer big.Close()
	check(big, `{"s":0,"t":25,"k":4}`, 512)
}

func jsonNum(t *testing.T, v any) string {
	t.Helper()
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("not a number: %v", v)
	}
	return strconv.FormatInt(int64(f), 10)
}

// TestPathsStreamLimit: the wire limit bounds the stream (completed=false).
func TestPathsStreamLimit(t *testing.T) {
	ts := testServer(t, nil)
	lines := ndjsonLines(t, ts, "/paths", `{"s":0,"t":3,"k":3,"limit":1}`)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 1 path + done", len(lines))
	}
	if lines[1]["done"] != true || lines[1]["completed"] != false {
		t.Fatalf("done line = %v", lines[1])
	}
}

// TestPathsStreamErrors: pre-stream failures are clean JSON 400s, not
// committed NDJSON responses.
func TestPathsStreamErrors(t *testing.T) {
	ts := testServer(t, nil)
	for _, body := range []string{
		`{"s":0,"t":3,"k":3`,   // malformed JSON
		`{"s":99,"t":3,"k":3}`, // unknown vertex
		`{"s":0,"t":0,"k":3}`,  // invalid query
	} {
		resp, err := http.Post(ts.URL+"/paths", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", body, resp.StatusCode)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: non-JSON error body: %v", body, err)
		}
		resp.Body.Close()
		if e["error"] == "" {
			t.Fatalf("%s: empty error", body)
		}
	}
}

// TestPathsClientDisconnectCancels is the streaming edge case from the
// cancellation model: a client that walks away mid-NDJSON stream must
// cancel the enumeration through the request context — the handler
// returns long before the ~10M-path result set could have been streamed,
// and the server keeps serving.
func TestPathsClientDisconnectCancels(t *testing.T) {
	// s -> 10 wide, 7 deep -> t: 10^7 paths.
	width, depth := 10, 7
	n := 2 + width*depth
	var edges []pathenum.Edge
	layer := func(l, i int) pathenum.VertexID { return pathenum.VertexID(1 + l*width + i) }
	for i := 0; i < width; i++ {
		edges = append(edges, pathenum.Edge{From: 0, To: layer(0, i)})
		edges = append(edges, pathenum.Edge{From: layer(depth-1, i), To: pathenum.VertexID(n - 1)})
	}
	for l := 0; l+1 < depth; l++ {
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				edges = append(edges, pathenum.Edge{From: layer(l, i), To: layer(l+1, j)})
			}
		}
	}
	g, err := pathenum.NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inner := New(engine, nil, Config{}).Handler()
	handlerDone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		if r.URL.Path == "/paths" {
			close(handlerDone)
		}
	}))
	t.Cleanup(ts.Close)

	body := strings.NewReader(`{"s":0,"t":` + strconv.Itoa(n-1) + `,"k":` + strconv.Itoa(depth+1) + `}`)
	resp, err := http.Post(ts.URL+"/paths", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line — proof the stream started — then walk away.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	select {
	case <-handlerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("handler still streaming 30s after client disconnect: enumeration was not cancelled")
	}
	// The server is healthy and the engine still serves.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after cancelled stream", hr.StatusCode)
	}
}

// TestBatchMalformedBody: a malformed /batch body is a 400 with a JSON
// error — never a buffered 200.
func TestBatchMalformedBody(t *testing.T) {
	ts := testServer(t, nil)
	for _, body := range []string{
		`{"queries":[{"s":0`,
		`not json at all`,
		`{"stream":true,"queries":`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status = %d, want 400", body, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%q: Content-Type = %q, want application/json", body, ct)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%q: non-JSON error body: %v", body, err)
		}
		resp.Body.Close()
		if e["error"] == "" {
			t.Fatalf("%q: empty error message", body)
		}
	}
}

// TestBatchStreamNDJSON: "stream":true turns /batch into NDJSON with one
// line per query (completion order, indexed back to request positions)
// and a final done line carrying the stats.
func TestBatchStreamNDJSON(t *testing.T) {
	ts := testServer(t, nil)
	body := `{"stream":true,"queries":[
		{"s":0,"t":3,"k":3},
		{"s":99,"t":3,"k":3},
		{"s":0,"t":3,"k":3},
		{"s":3,"t":1,"k":2}]}`
	lines := ndjsonLines(t, ts, "/batch", body)
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 4 queries + done: %v", len(lines), lines)
	}
	last := lines[len(lines)-1]
	if last["done"] != true {
		t.Fatalf("last line is not done: %v", last)
	}
	stats, ok := last["stats"].(map[string]any)
	if !ok {
		t.Fatalf("done line missing stats: %v", last)
	}
	if stats["queries"].(float64) != 4 || stats["invalid"].(float64) != 1 || stats["deduped"].(float64) != 1 {
		t.Fatalf("stats = %v", stats)
	}
	byIndex := map[int]map[string]any{}
	for _, line := range lines[:len(lines)-1] {
		i := int(line["index"].(float64))
		if byIndex[i] != nil {
			t.Fatalf("index %d delivered twice", i)
		}
		byIndex[i] = line
	}
	for i, wantCount := range map[int]float64{0: 2, 2: 2, 3: 1} {
		line := byIndex[i]
		if line == nil {
			t.Fatalf("index %d missing", i)
		}
		if line["count"].(float64) != wantCount || line["completed"] != true {
			t.Fatalf("index %d: %v, want count %v", i, line, wantCount)
		}
	}
	if e, _ := byIndex[1]["error"].(string); e == "" {
		t.Fatalf("index 1 (unknown vertex) must carry an error: %v", byIndex[1])
	}
}

// TestStatsPool: /stats exposes the worker-pool gauges (worker count,
// in-flight queries, utilization).
func TestStatsPool(t *testing.T) {
	ts := testServer(t, nil)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Pool *poolStats `json:"pool"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Pool == nil || stats.Pool.Workers != 2 {
		t.Fatalf("pool = %+v, want 2 workers", stats.Pool)
	}
	if stats.Pool.InFlightQueries != 0 || stats.Pool.Utilization != 0 {
		t.Fatalf("idle pool = %+v, want zero gauges", stats.Pool)
	}
}

// TestLegacyParallelIgnored: "parallel" is no longer part of the wire
// format. An old client's body field or ?parallel= parameter — a malformed
// one included — is ignored like any unknown field: /query and /paths
// answer 200 with the pathenum.Count answer, and a /batch slot carrying
// a per-query "parallel" runs like any other.
func TestLegacyParallelIgnored(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 17)
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, nil, Config{}).Handler())
	t.Cleanup(ts.Close)
	want, err := pathenum.Count(g, pathenum.Query{S: 79, T: 0, K: 4})
	if err != nil || want == 0 {
		t.Fatalf("fixture: Count = %d, %v", want, err)
	}
	for _, c := range []struct{ query, body string }{
		{"", `{"s":79,"t":0,"k":4,"parallel":2}`},
		{"?parallel=2", `{"s":79,"t":0,"k":4}`},
		{"?parallel=bogus", `{"s":79,"t":0,"k":4}`},
	} {
		resp, err := http.Post(ts.URL+"/query"+c.query, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var qr queryResponse
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&qr)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || qr.Count != want || !qr.Completed {
			t.Fatalf("/query%s %s: status %d, %+v (%v), want count %d", c.query, c.body, resp.StatusCode, qr, err, want)
		}
		lines := ndjsonLines(t, ts, "/paths"+c.query, c.body)
		if n := uint64(len(lines) - 1); n != want || lines[n]["done"] != true || jsonNum(t, lines[n]["count"]) != strconv.FormatUint(want, 10) {
			t.Fatalf("/paths%s %s: %d path lines, done line %v, want %d", c.query, c.body, n, lines[n], want)
		}
	}
	_, br := postBatch(t, ts, `{"queries":[{"s":79,"t":0,"k":4,"parallel":2},{"s":79,"t":0,"k":4}]}`)
	for i, r := range br.Results {
		if r.Error != "" || r.Count != want {
			t.Fatalf("/batch slot %d = %+v, want count %d", i, r, want)
		}
	}
}

// TestRequestBodyCap: every body handler reads at most maxBodyBytes. A
// larger body is refused with 413 before it is held in memory; a maximal
// legal body — maxBatchQueries queries, every id at the widest int64
// encoding — is not; and the server keeps answering.
func TestRequestBodyCap(t *testing.T) {
	ts := testServer(t, nil)
	huge := `{"s":0,"t":3,"k":3,"method":"` + strings.Repeat("x", 8<<20) + `"}`
	for _, path := range []string{"/query", "/paths", "/batch", "/insert"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with an 8 MB body: status %d, want 413", path, resp.StatusCode)
		}
	}
	const widest = "-9223372036854775808"
	item := `{"s":` + widest + `,"t":` + widest + `,"k":` + widest + `}`
	body := `{"queries":[` + strings.Repeat(item+",", maxBatchQueries-1) + item + `]}`
	resp, br := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK || len(br.Results) != maxBatchQueries {
		t.Fatalf("maximal %d-byte /batch: status %d, %d results", len(body), resp.StatusCode, len(br.Results))
	}
	if resp, qr := postQuery(t, ts, `{"s":0,"t":3,"k":3}`); resp.StatusCode != http.StatusOK || qr.Count != 2 {
		t.Fatalf("/query after the refusals: status %d, %+v", resp.StatusCode, qr)
	}
}
