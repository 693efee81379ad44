// Package server is the HTTP face of the engine, shared by the
// pathenumd daemon and in-process harnesses (the loadpath self-serve
// mode, httptest-based tests). It wires the query surfaces (/query,
// /paths, /batch), the engine write path (/insert, /flush), and the
// production observability layer: GET /metrics in Prometheus text
// exposition, a liveness/readiness split (/healthz, /readyz with
// load-shedding), a structured NDJSON access log, and GET /stats
// assembled from the engine's metrics registry.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"time"

	"pathenum"
	"pathenum/internal/core"
)

// Engine is the query/write surface the HTTP layer serves. Both
// pathenum.Engine and the sharded shard.Engine implement it, so the
// daemon switches images with a constructor choice — no handler knows
// which one is behind the mux.
type Engine interface {
	Graph() *pathenum.Graph
	Epoch() uint64
	PendingWrites() int
	PoolStats() pathenum.PoolStats
	OracleLag() time.Duration
	Metrics() *pathenum.MetricsRegistry
	Insert(from, to pathenum.VertexID) (bool, error)
	Flush() error
	ExecuteWith(ctx context.Context, q pathenum.Query, opts pathenum.Options) (*pathenum.Result, error)
	ExecuteAllContext(ctx context.Context, queries []pathenum.Query, opts pathenum.Options) ([]*pathenum.Result, []error)
	ExecuteBatch(ctx context.Context, queries []pathenum.Query, opts pathenum.Options) ([]*pathenum.Result, []error, *pathenum.BatchStats)
	Stream(ctx context.Context, req pathenum.Request) iter.Seq2[pathenum.Path, error]
	StreamBatch(ctx context.Context, queries []pathenum.Query, opts pathenum.Options) iter.Seq[pathenum.BatchItem]
}

// queryRequest is the JSON body of POST /query.
type queryRequest struct {
	S        int64  `json:"s"`
	T        int64  `json:"t"`
	K        int    `json:"k"`
	Method   string `json:"method,omitempty"`   // auto | dfs | join
	Limit    uint64 `json:"limit,omitempty"`    // cap on enumerated results
	Paths    bool   `json:"paths,omitempty"`    // include path vertex lists
	Timeout  string `json:"timeout,omitempty"`  // e.g. "500ms"
	Parallel int    `json:"parallel,omitempty"` // intra-query fan-out (0 = sequential, capped at engine workers)
}

// queryResponse is the JSON reply.
type queryResponse struct {
	Count     uint64    `json:"count"`
	Completed bool      `json:"completed"`
	Plan      string    `json:"plan"`
	Cut       int       `json:"cut,omitempty"`
	Millis    float64   `json:"ms"`
	Paths     [][]int64 `json:"paths,omitempty"`
}

// Config tunes the HTTP layer; the zero value serves with the defaults.
type Config struct {
	// MaxPaths caps the materialized paths per /query response
	// (default 1000). Streaming endpoints are not capped.
	MaxPaths uint64
	// AccessLog, when non-nil, receives one JSON line per request:
	// request id, method, path, status, duration, and the handler
	// annotations (plan, path count). Writes are serialized.
	AccessLog io.Writer
	// ShedUtilization is the pool-utilization threshold at which
	// GET /readyz reports 503 so a load balancer drains traffic
	// (default 2.0 — in-flight demand at twice the worker count).
	// Negative disables shedding.
	ShedUtilization float64
	// ShedOracleLag is the oracle rebuild lag past which GET /readyz
	// sheds with 503: a replica serving unpruned for that long is
	// degraded enough to drain. Zero disables lag shedding (rebuild lag
	// stays informational in the /readyz body).
	ShedOracleLag time.Duration
}

// DefaultShedUtilization is the /readyz shedding threshold used when
// Config.ShedUtilization is 0.
const DefaultShedUtilization = 2.0

// Server wires the engine behind an HTTP API. All handlers are safe for
// concurrent use: query state is per request.
type Server struct {
	engine Engine
	// orig maps dense ids back to the input file's ids (nil = identity).
	orig    []int64
	toDense map[int64]pathenum.VertexID
	// maxPaths caps the number of materialized paths per response.
	maxPaths uint64
	shed     float64
	shedLag  time.Duration
	log      *accessLogger
	metrics  *httpMetrics
}

// New builds a server over engine — a pathenum.Engine or a sharded
// shard.Engine. orig maps dense vertex ids back to the input file's ids
// (nil = identity). The server registers its HTTP series on the
// engine's metrics registry, so one /metrics scrape covers both layers.
func New(engine Engine, orig []int64, cfg Config) *Server {
	s := &Server{engine: engine, orig: orig, maxPaths: cfg.MaxPaths,
		shed: cfg.ShedUtilization, shedLag: cfg.ShedOracleLag}
	if s.maxPaths == 0 {
		s.maxPaths = 1000
	}
	if s.shed == 0 {
		s.shed = DefaultShedUtilization
	}
	if cfg.AccessLog != nil {
		s.log = newAccessLogger(cfg.AccessLog)
	}
	s.metrics = newHTTPMetrics(engine.Metrics())
	if orig != nil {
		s.toDense = make(map[int64]pathenum.VertexID, len(orig))
		for dense, raw := range orig {
			s.toDense[raw] = pathenum.VertexID(dense)
		}
	}
	return s
}

func (s *Server) dense(raw int64) (pathenum.VertexID, bool) {
	if s.toDense == nil {
		n := int64(s.engine.Graph().NumVertices())
		if raw < 0 || raw >= n {
			return 0, false
		}
		return pathenum.VertexID(raw), true
	}
	v, ok := s.toDense[raw]
	return v, ok
}

func (s *Server) raw(dense pathenum.VertexID) int64 {
	if s.orig == nil {
		return int64(dense)
	}
	return s.orig[dense]
}

// rawPath maps a result path back to the input file's vertex ids.
func (s *Server) rawPath(p pathenum.Path) []int64 {
	out := make([]int64, len(p))
	for i, v := range p {
		out[i] = s.raw(v)
	}
	return out
}

// Handler builds the route table, each route wrapped in the
// access-log + HTTP-metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.observe(name, h))
	}
	route("POST /query", "query", s.handleQuery)
	route("POST /paths", "paths", s.handlePaths)
	route("POST /batch", "batch", s.handleBatch)
	route("POST /insert", "insert", s.handleInsert)
	route("POST /flush", "flush", s.handleFlush)
	route("GET /healthz", "healthz", s.handleHealth)
	route("GET /readyz", "readyz", s.handleReady)
	route("GET /stats", "stats", s.handleStats)
	route("GET /metrics", "metrics", s.engine.Metrics().Handler().ServeHTTP)
	return mux
}

// ndjsonContentType marks the streaming responses: one JSON object per
// line, flushed as produced.
const ndjsonContentType = "application/x-ndjson"

// streamBuffer caps the chunk of paths /paths encodes, writes and flushes
// at once — how far enumeration may run ahead of the HTTP write. Chunks
// only form while a write is in flight (core.Chunked), so the cap trades
// nothing against first-line latency: it is sized to make the flush
// syscall's share of a heavy stream negligible.
const streamBuffer = 256

// handleHealth is the liveness probe: the process is up and the handler
// loop runs. Readiness (should this replica receive traffic?) is
// /readyz — a saturated or write-lagged server is alive but not ready.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReady is the readiness probe: 200 while the replica should
// receive traffic, 503 when the pool is saturated past the shedding
// threshold. The body carries the signals a load balancer (or operator)
// sheds on — epoch, pending writes, pool occupancy — in both states.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	ps := s.engine.PoolStats()
	util := ps.Utilization()
	body := map[string]any{
		"ready":           true,
		"epoch":           s.engine.Epoch(),
		"pendingWrites":   s.engine.PendingWrites(),
		"utilization":     util,
		"workers":         ps.Workers,
		"inFlightQueries": ps.InFlightQueries,
	}
	// A rebuild in flight means queries serve unpruned (correct, slower)
	// until the background worker lands a fresh oracle. By default that is
	// informational — degraded capacity is not drained capacity — but past
	// the configured ShedOracleLag the replica sheds: a rebuild stuck that
	// long is backpressure a load balancer should route around.
	lag := s.engine.OracleLag()
	if lag > 0 {
		body["oracleDegraded"] = true
		body["oracleLagSeconds"] = lag.Seconds()
	}
	if s.shed >= 0 && util >= s.shed {
		body["ready"] = false
		body["reason"] = fmt.Sprintf("pool saturated: utilization %.2f >= %.2f", util, s.shed)
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	if s.shedLag > 0 && lag >= s.shedLag {
		s.metrics.oracleShed.Inc()
		body["ready"] = false
		body["reason"] = fmt.Sprintf("oracle rebuild lag %s >= %s", lag, s.shedLag)
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// cacheStats is the wire form of the engine's frontier-cache counters.
type cacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	Bytes         int64  `json:"bytes"`
}

// memStats is the wire form of the engine's memory-budget ledger
// (pathenum_mem_* series). All-zero when the engine runs unbudgeted.
type memStats struct {
	BudgetBytes      int64  `json:"budgetBytes"`
	UsedBytes        int64  `json:"usedBytes"`
	CacheBytes       int64  `json:"cacheBytes"`
	ScratchBytes     int64  `json:"scratchBytes"`
	BuildBytes       int64  `json:"buildBytes"`
	JoinFallbacks    uint64 `json:"joinFallbacks"`
	DepositsRejected uint64 `json:"depositsRejected"`
}

// poolStats is the wire form of the engine's worker-pool occupancy: the
// utilization of the pool and the intra-query parallel shards in flight,
// so a parallel speedup is observable from the daemon, not just in
// benchmarks.
type poolStats struct {
	Workers         int     `json:"workers"`
	InFlightQueries int     `json:"inFlightQueries"`
	InFlightShards  int     `json:"inFlightShards"`
	Utilization     float64 `json:"utilization"`
}

// handleStats serves the pre-registry JSON stats shape, now assembled
// from the engine's metrics registry snapshot — one source of truth with
// GET /metrics. avgDegree is derived (edges/vertices) rather than
// registered; the response shape is unchanged for existing consumers.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.engine.Metrics().Snapshot()
	vertices := snap["pathenum_graph_vertices"]
	edges := snap["pathenum_graph_edges"]
	avgDegree := 0.0
	if vertices > 0 {
		avgDegree = edges / vertices
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"vertices":  int(vertices),
		"edges":     int64(edges),
		"avgDegree": avgDegree,
		"epoch":     uint64(snap["pathenum_graph_epoch"]),
		"frontierCache": cacheStats{
			Hits:          uint64(snap["pathenum_frontier_cache_hits_total"]),
			Misses:        uint64(snap["pathenum_frontier_cache_misses_total"]),
			Evictions:     uint64(snap["pathenum_frontier_cache_evictions_total"]),
			Invalidations: uint64(snap["pathenum_frontier_cache_invalidations_total"]),
			Entries:       int(snap["pathenum_frontier_cache_entries"]),
			Capacity:      int(snap["pathenum_frontier_cache_capacity"]),
			Bytes:         int64(snap["pathenum_frontier_cache_bytes"]),
		},
		"mem": memStats{
			BudgetBytes:      int64(snap["pathenum_mem_budget_bytes"]),
			UsedBytes:        int64(snap["pathenum_mem_bytes"]),
			CacheBytes:       int64(snap["pathenum_mem_cache_bytes"]),
			ScratchBytes:     int64(snap["pathenum_mem_scratch_bytes"]),
			BuildBytes:       int64(snap["pathenum_mem_build_bytes"]),
			JoinFallbacks:    uint64(snap["pathenum_mem_join_fallbacks_total"]),
			DepositsRejected: uint64(snap["pathenum_mem_deposits_rejected_total"]),
		},
		"pool": poolStats{
			Workers:         int(snap["pathenum_pool_workers"]),
			InFlightQueries: int(snap["pathenum_pool_inflight_queries"]),
			InFlightShards:  int(snap["pathenum_pool_inflight_shards"]),
			Utilization:     snap["pathenum_pool_utilization"],
		},
	})
}

// insertRequest is the JSON body of POST /insert: edges in the input
// file's vertex ids, applied through the engine write path. Vertices
// must already exist (the graph's vertex set is fixed at load).
type insertRequest struct {
	Edges []insertEdge `json:"edges"`
	// Flush forces the applied edges into the serving snapshot even if
	// EngineConfig.SnapshotEvery would keep buffering them.
	Flush bool `json:"flush,omitempty"`
}

type insertEdge struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// insertResponse reports what the write path did. Pending is the
// insertions applied but not yet published (SnapshotEvery
// amortization); Epoch identifies the serving graph after the call.
type insertResponse struct {
	Applied int    `json:"applied"`
	Ignored int    `json:"ignored"` // duplicates and self-loops
	Pending int    `json:"pending"`
	Epoch   uint64 `json:"epoch"`
}

// maxInsertEdges bounds one POST /insert body.
const maxInsertEdges = 10000

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req insertRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Edges) == 0 {
		httpError(w, http.StatusBadRequest, "insert needs at least one edge")
		return
	}
	if len(req.Edges) > maxInsertEdges {
		httpError(w, http.StatusBadRequest, "insert of %d edges exceeds limit %d", len(req.Edges), maxInsertEdges)
		return
	}
	// Resolve every endpoint before applying anything, so a bad edge is a
	// clean 400 instead of a half-applied batch.
	type densePair struct{ from, to pathenum.VertexID }
	resolved := make([]densePair, len(req.Edges))
	for i, e := range req.Edges {
		from, ok := s.dense(e.From)
		if !ok {
			httpError(w, http.StatusBadRequest, "edge %d: unknown source vertex %d", i, e.From)
			return
		}
		to, ok := s.dense(e.To)
		if !ok {
			httpError(w, http.StatusBadRequest, "edge %d: unknown target vertex %d", i, e.To)
			return
		}
		resolved[i] = densePair{from, to}
	}
	var resp insertResponse
	for _, e := range resolved {
		added, err := s.engine.Insert(e.from, e.to)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "insert failed: %v", err)
			return
		}
		if added {
			resp.Applied++
		} else {
			resp.Ignored++
		}
	}
	if req.Flush {
		if err := s.engine.Flush(); err != nil {
			httpError(w, http.StatusInternalServerError, "flush failed: %v", err)
			return
		}
	}
	resp.Pending = s.engine.PendingWrites()
	resp.Epoch = s.engine.Epoch()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFlush(w http.ResponseWriter, _ *http.Request) {
	if err := s.engine.Flush(); err != nil {
		httpError(w, http.StatusInternalServerError, "flush failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pending": s.engine.PendingWrites(),
		"epoch":   s.engine.Epoch(),
	})
}

// parseOptions converts wire-level method/limit/timeout/parallel to
// per-call option overrides (zero fields inherit the engine defaults at
// execution time; parallel is capped at the engine's worker count by the
// merge).
func parseOptions(method string, limit uint64, timeout string, parallel int) (pathenum.Options, error) {
	if parallel < 0 {
		return pathenum.Options{}, fmt.Errorf("bad parallel %d: must be >= 0", parallel)
	}
	opts := pathenum.Options{Limit: limit, Parallelism: parallel}
	switch method {
	case "", "auto":
		opts.Method = pathenum.Auto
	case "dfs":
		opts.Method = pathenum.DFS
	case "join":
		opts.Method = pathenum.Join
	default:
		return pathenum.Options{}, fmt.Errorf("unknown method %q", method)
	}
	if timeout != "" {
		d, err := time.ParseDuration(timeout)
		if err != nil {
			return pathenum.Options{}, fmt.Errorf("bad timeout: %v", err)
		}
		opts.Timeout = d
	}
	return opts, nil
}

// resolveQuery maps wire-level (raw) endpoints to a dense query.
func (s *Server) resolveQuery(sRaw, tRaw int64, k int) (pathenum.Query, error) {
	src, ok := s.dense(sRaw)
	if !ok {
		return pathenum.Query{}, fmt.Errorf("unknown source vertex %d", sRaw)
	}
	dst, ok := s.dense(tRaw)
	if !ok {
		return pathenum.Query{}, fmt.Errorf("unknown target vertex %d", tRaw)
	}
	return pathenum.Query{S: src, T: dst, K: k}, nil
}

// parseQuery converts the wire request to a dense query plus per-call
// option overrides. Paths materialization is handled by the caller (it
// needs a response-local Emit closure).
func (s *Server) parseQuery(req queryRequest) (pathenum.Query, pathenum.Options, error) {
	q, err := s.resolveQuery(req.S, req.T, req.K)
	if err != nil {
		return pathenum.Query{}, pathenum.Options{}, err
	}
	opts, err := parseOptions(req.Method, req.Limit, req.Timeout, req.Parallel)
	if err != nil {
		return pathenum.Query{}, pathenum.Options{}, err
	}
	return q, opts, nil
}

// parallelOverride applies the ?parallel= URL query parameter over the
// body's JSON field — a curl-friendly way to A/B the fan-out without
// editing the request body.
func parallelOverride(r *http.Request, body int) (int, error) {
	raw := r.URL.Query().Get("parallel")
	if raw == "" {
		return body, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad parallel %q: must be an integer >= 0", raw)
	}
	return v, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	q, opts, err := s.parseQuery(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if opts.Parallelism, err = parallelOverride(r, opts.Parallelism); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	var paths [][]int64
	if req.Paths {
		// Clamp the enumeration itself, not just the stored slice: once the
		// response cannot grow there is no point materializing further
		// results, so the run stops (and reports Completed=false) at the cap.
		pathCap := req.Limit
		if pathCap == 0 || pathCap > s.maxPaths {
			pathCap = s.maxPaths
		}
		opts.Limit = pathCap
		opts.Emit = func(p []pathenum.VertexID) bool {
			paths = append(paths, s.rawPath(p))
			return true
		}
	}

	// Running through the engine (rather than a bare Enumerate on the
	// engine's graph) buys session buffer reuse, the engine oracle and
	// cancellation when the client disconnects.
	start := time.Now()
	res, err := s.engine.ExecuteWith(r.Context(), q, opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, "query failed: %v", err)
		return
	}
	annotate(r, res.Plan.Method.String(), res.Counters.Results)
	writeJSON(w, http.StatusOK, queryResponse{
		Count:     res.Counters.Results,
		Completed: res.Completed,
		Plan:      res.Plan.Method.String(),
		Cut:       res.Plan.Cut,
		Millis:    float64(time.Since(start)) / float64(time.Millisecond),
		Paths:     paths,
	})
}

// appendPathLine appends one NDJSON line of POST /paths — a single result
// path in the input file's vertex ids, {"path":[1,2,3]} — byte for byte
// what encoding/json writes for struct{ Path []int64 `json:"path"` }.
func (s *Server) appendPathLine(b []byte, p pathenum.Path) []byte {
	b = append(b, `{"path":[`...)
	for i, v := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, s.raw(v), 10)
	}
	return append(b, "]}\n"...)
}

// doneLine is the trailing NDJSON line of POST /paths: the run summary a
// buffered /query response would have carried.
type doneLine struct {
	Done      bool    `json:"done"`
	Count     uint64  `json:"count"`
	Completed bool    `json:"completed"`
	Plan      string  `json:"plan,omitempty"`
	Cut       int     `json:"cut,omitempty"`
	Millis    float64 `json:"ms"`
}

// handlePaths streams result paths as NDJSON: the first line reaches the
// client while enumeration is still running, and a client disconnect
// cancels the enumeration through the request context — the streaming face
// of /query. The enumeration runs in a producer goroutine (core.Chunked
// around the engine's unbuffered stream) and every chunk it hands over is
// encoded into one reused buffer and costs one Write and one Flush: a
// chunk of one while this loop is idle — the first line, or a trickling
// enumeration, leaves immediately — and up to streamBuffer paths while a
// write is in flight. The body is the /query wire format (the "paths" flag
// is implied); the final line is a {"done":true,...} summary. Unlike
// /query, results are not capped at the server's maxPaths: delivery is
// incremental, so the client bounds the response with "limit" or by
// closing the connection.
func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	q, opts, err := s.parseQuery(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if opts.Parallelism, err = parallelOverride(r, opts.Parallelism); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	sreq := pathenum.NewRequest(q)
	sreq.Method = opts.Method
	sreq.Limit = opts.Limit
	sreq.Timeout = opts.Timeout
	sreq.Parallelism = opts.Parallelism
	// Set on the producer goroutine, read after the range ends — which
	// Chunked orders after the producer's exit.
	var sum *pathenum.Result
	sreq.OnResult = func(res *pathenum.Result) { sum = res }

	start := time.Now()
	flusher, _ := w.(http.Flusher)
	wrote := false
	var buf []byte
	chunks := core.Chunked(r.Context(), streamBuffer, func(ctx context.Context) iter.Seq2[pathenum.Path, error] {
		return s.engine.Stream(ctx, sreq)
	})
	for chunk, serr := range chunks {
		if serr != nil {
			// Terminal errors surface before any path: pre-stream they are
			// a clean 400; mid-stream (not reachable today) they become a
			// trailing error line on the already-committed response.
			if !wrote {
				httpError(w, http.StatusBadRequest, "query failed: %v", serr)
			} else {
				_ = json.NewEncoder(w).Encode(map[string]string{"error": serr.Error()})
			}
			return
		}
		if !wrote {
			w.Header().Set("Content-Type", ndjsonContentType)
			wrote = true
		}
		buf = buf[:0]
		for _, p := range chunk {
			buf = s.appendPathLine(buf, p)
		}
		if _, err := w.Write(buf); err != nil {
			return // client went away; the context cancels the enumeration
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if !wrote {
		w.Header().Set("Content-Type", ndjsonContentType)
	}
	line := doneLine{Done: true, Millis: float64(time.Since(start)) / float64(time.Millisecond)}
	if sum != nil {
		line.Count = sum.Counters.Results
		line.Completed = sum.Completed
		line.Plan = sum.Plan.Method.String()
		line.Cut = sum.Plan.Cut
		annotate(r, line.Plan, line.Count)
	}
	_ = json.NewEncoder(w).Encode(line)
	if flusher != nil {
		flusher.Flush()
	}
}

// batchRequest is the JSON body of POST /batch: a list of queries answered
// against the shared engine, plus batch-wide option overrides. Responses
// carry counts only (no path materialization). Naive opts out of
// ExecuteBatch's dedup and endpoint order and fans the queries out
// independently (the ExecuteAllContext baseline).
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
	Method  string         `json:"method,omitempty"`
	Limit   uint64         `json:"limit,omitempty"`
	Timeout string         `json:"timeout,omitempty"`
	Naive   bool           `json:"naive,omitempty"`
	// Stream switches the response to NDJSON with per-query flush: one
	// {"index":i,...} line the moment each query's execution settles
	// (completion order, not input order), closed by a {"done":true,...}
	// line carrying the batch stats. Client disconnect cancels the
	// remaining work fail-fast. Mutually exclusive with Naive — streaming
	// delivery is a property of Engine.StreamBatch.
	Stream bool `json:"stream,omitempty"`
}

// batchStats is the wire form of the engine's per-batch report.
// BFSPassesRun is the count actually executed after frontier-cache hits
// (0 on a fully warm repeat batch); Epoch identifies the graph version
// the batch ran on.
type batchStats struct {
	Queries        int    `json:"queries"`
	Invalid        int    `json:"invalid,omitempty"`
	Unique         int    `json:"unique"`
	Deduped        int    `json:"deduped"`
	BFSPassesNaive int    `json:"bfsPassesNaive"`
	BFSPassesSaved int    `json:"bfsPassesSaved"`
	BFSPassesRun   int    `json:"bfsPassesRun"`
	CacheHits      int    `json:"cacheHits"`
	CacheMisses    int    `json:"cacheMisses"`
	Epoch          uint64 `json:"epoch"`
}

// batchResult is one slot of the batch response; Error is set instead of
// the result fields when that query failed.
type batchResult struct {
	Count     uint64 `json:"count"`
	Completed bool   `json:"completed"`
	Plan      string `json:"plan,omitempty"`
	Error     string `json:"error,omitempty"`
}

// maxBatchQueries bounds one POST /batch body.
const maxBatchQueries = 10000

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		httpError(w, http.StatusBadRequest, "batch of %d exceeds limit %d", len(req.Queries), maxBatchQueries)
		return
	}
	opts, err := parseOptions(req.Method, req.Limit, req.Timeout, 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Stream && req.Naive {
		httpError(w, http.StatusBadRequest, "stream and naive are mutually exclusive")
		return
	}

	out := make([]batchResult, len(req.Queries))
	queries := make([]pathenum.Query, 0, len(req.Queries))
	slots := make([]int, 0, len(req.Queries))
	for i, qr := range req.Queries {
		// Options are batch-wide; reject per-query overrides loudly rather
		// than dropping them.
		if qr.Method != "" || qr.Limit != 0 || qr.Timeout != "" || qr.Paths || qr.Parallel != 0 {
			out[i].Error = "per-query method/limit/timeout/paths/parallel are not supported in /batch; set them batch-wide"
			continue
		}
		q, qerr := s.resolveQuery(qr.S, qr.T, qr.K)
		if qerr != nil {
			out[i].Error = qerr.Error()
			continue
		}
		queries = append(queries, q)
		slots = append(slots, i)
	}

	if req.Stream {
		s.streamBatch(w, r, opts, out, queries, slots)
		return
	}

	// ExecuteBatch is the default path: it dedups identical queries and
	// runs queries sharing an endpoint back to back over the frontier
	// cache, reporting the BFS passes it saved in the response stats.
	// "naive":true keeps the independent fan-out for comparison.
	start := time.Now()
	var (
		results []*pathenum.Result
		errs    []error
		stats   *pathenum.BatchStats
	)
	if req.Naive {
		results, errs = s.engine.ExecuteAllContext(r.Context(), queries, opts)
	} else {
		results, errs, stats = s.engine.ExecuteBatch(r.Context(), queries, opts)
	}
	var delivered uint64
	for j, i := range slots {
		if errs[j] != nil {
			out[i].Error = errs[j].Error()
			continue
		}
		out[i] = batchResult{
			Count:     results[j].Counters.Results,
			Completed: results[j].Completed,
			Plan:      results[j].Plan.Method.String(),
		}
		delivered += results[j].Counters.Results
	}
	annotate(r, "batch", delivered)
	resp := map[string]any{
		"results": out,
		"ms":      float64(time.Since(start)) / float64(time.Millisecond),
	}
	if stats != nil {
		resp["stats"] = s.toBatchStats(stats, len(req.Queries), len(req.Queries)-len(queries))
	}
	writeJSON(w, http.StatusOK, resp)
}

// toBatchStats converts the engine stats to the wire form. The engine
// only saw the queries that survived wire-level resolution; totalQueries
// and rejected reconcile the report with the client's batch (rejected
// slots count as invalid).
func (s *Server) toBatchStats(stats *pathenum.BatchStats, totalQueries, rejected int) batchStats {
	return batchStats{
		Queries:        totalQueries,
		Invalid:        stats.Invalid + rejected,
		Unique:         stats.Unique,
		Deduped:        stats.Deduped,
		BFSPassesNaive: stats.BFSPassesNaive,
		BFSPassesSaved: stats.BFSPassesSaved,
		BFSPassesRun:   stats.BFSPassesRun,
		CacheHits:      stats.FrontierCacheHits,
		CacheMisses:    stats.FrontierCacheMisses,
		Epoch:          s.engine.Epoch(),
	}
}

// batchLine is one NDJSON line of a streaming /batch response: the result
// (or error) of the query at the request's Index position, flushed as its
// execution settles.
type batchLine struct {
	Index     int    `json:"index"`
	Count     uint64 `json:"count"`
	Completed bool   `json:"completed"`
	Plan      string `json:"plan,omitempty"`
	Error     string `json:"error,omitempty"`
}

// batchDoneLine closes a streaming /batch response.
type batchDoneLine struct {
	Done   bool        `json:"done"`
	Millis float64     `json:"ms"`
	Stats  *batchStats `json:"stats,omitempty"`
}

// streamBatch serves the NDJSON form of /batch: wire-rejected slots
// first, then one line per query in completion order via
// Engine.StreamBatch, then the done line with the batch stats. Write
// failures (client disconnect) abandon the stream, which cancels the
// remaining work through the request context with StreamBatch's
// fail-fast semantics.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, opts pathenum.Options, out []batchResult, queries []pathenum.Query, slots []int) {
	w.Header().Set("Content-Type", ndjsonContentType)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	rejected := 0
	for i := range out {
		if out[i].Error == "" {
			continue
		}
		rejected++
		if err := enc.Encode(batchLine{Index: i, Error: out[i].Error}); err != nil {
			return
		}
		flush()
	}

	start := time.Now()
	var delivered uint64
	for item := range s.engine.StreamBatch(r.Context(), queries, opts) {
		if item.Index == -1 {
			done := batchDoneLine{Done: true, Millis: float64(time.Since(start)) / float64(time.Millisecond)}
			if item.Stats != nil {
				st := s.toBatchStats(item.Stats, len(out), rejected)
				done.Stats = &st
			}
			annotate(r, "batch", delivered)
			_ = enc.Encode(done)
			flush()
			return
		}
		line := batchLine{Index: slots[item.Index]}
		if item.Err != nil {
			line.Error = item.Err.Error()
		} else {
			line.Count = item.Result.Counters.Results
			line.Completed = item.Result.Completed
			line.Plan = item.Result.Plan.Method.String()
			delivered += line.Count
		}
		if err := enc.Encode(line); err != nil {
			return
		}
		flush()
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
