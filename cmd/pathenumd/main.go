// Command pathenumd serves hop-constrained s-t path queries over HTTP — the
// online scenario (fraud screening, transaction monitoring) that motivates
// the paper's real-time requirement. The graph is loaded once; every query
// builds its own light-weight index, so requests parallelize freely.
//
//	pathenumd -graph g.txt -addr :8080
//	pathenumd -dataset ep -addr :8080      # serve a synthetic registry graph
//
//	curl -s localhost:8080/stats
//	curl -s localhost:8080/metrics                  # Prometheus exposition
//	curl -s localhost:8080/readyz                   # readiness + shed signals
//	curl -s -X POST localhost:8080/query \
//	     -d '{"s":3,"t":17,"k":6,"limit":10,"paths":true}'
//	curl -sN -X POST localhost:8080/paths \
//	     -d '{"s":3,"t":17,"k":6}'                 # NDJSON, one path per line
//	curl -s -X POST localhost:8080/batch \
//	     -d '{"queries":[{"s":3,"t":17,"k":6},{"s":4,"t":9,"k":5}],"limit":100}'
//	curl -sN -X POST localhost:8080/batch \
//	     -d '{"stream":true,"queries":[{"s":3,"t":17,"k":6},{"s":4,"t":9,"k":5}]}'
//	curl -s -X POST localhost:8080/insert \
//	     -d '{"edges":[{"from":3,"to":9}],"flush":true}'
//
// Every request runs through the engine's session pool (buffer reuse plus
// the optional distance oracle) and observes the request context, so a
// client disconnect cancels the enumeration mid-flight — including
// mid-NDJSON-stream. POST /paths is the streaming face of /query
// (Engine.Stream underneath): paths arrive line by line with per-line
// flush while enumeration is still running, closed by a {"done":true,...}
// summary. POST /batch runs Engine.StreamBatch — duplicate queries
// answered once, the rest fanned out in endpoint order over the frontier
// cache — and its response stats report queries, invalid, unique,
// deduped, bfsPassesNaive, bfsPassesRun, bfsPassesSaved, cacheHits,
// cacheMisses and epoch; add "stream":true for NDJSON with per-query
// flush as executions settle. Every surface shares the
// engine's frontier cache (size it with -frontier-cache): hub-grade
// endpoints are deposited single-flight on their first miss, so a repeat
// hub is served with zero BFS passes — watch bfsPassesRun and cacheHits
// in the /batch stats.
//
// -mem-budget caps engine memory (frontier cache + session scratch + join
// build sides) under one byte budget, e.g. -mem-budget 256MiB: the cache
// evicts on bytes, join-planned queries whose predicted build side does
// not fit degrade to the identical-result DFS plan, and pathenum_mem_*
// gauges expose the ledger on /metrics.
//
// Observability: GET /metrics exposes the engine and HTTP series in
// Prometheus text exposition — request latency and time-to-first-path
// histograms, per-stage timings (BFS, index build, join build/probe),
// frontier-cache and pool gauges, graph epoch and write-path lag. GET
// /healthz is pure liveness; GET /readyz reports readiness and returns
// 503 past the -shed-utilization pool saturation threshold — or past the
// -shed-oracle-lag rebuild-lag threshold — so a load balancer drains the
// replica. -access-log writes one JSON line per
// request (id, method, path, status, duration, plan, path count) to
// stderr. POST /insert and /flush drive the engine-owned write path over
// the wire (edges between existing vertices; the epoch advances and
// cached frontiers invalidate lazily).
//
// -shards N serves the graph through the sharded engine (internal/shard):
// the edge list splits into N edge-cut partitions, intra-shard queries
// delegate to per-shard engine spines, cross-shard queries join at the
// partition boundary, /batch runs on the full image, and pathenum_shard_*
// series land on the same /metrics scrape. -shard-degree-aware keeps hub out-edges co-resident.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"pathenum"
	"pathenum/internal/gen"
	"pathenum/internal/server"
	"pathenum/internal/shard"
)

// parseBytes parses a human-friendly byte size: a plain integer is bytes;
// KiB/MiB/GiB (or the loose KB/MB/GB, K/M/G — all binary) scale it.
func parseBytes(s string) (int64, error) {
	num := strings.TrimSpace(s)
	var mult int64 = 1
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"GiB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MiB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KiB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1},
	} {
		if strings.HasSuffix(num, u.suffix) {
			num = strings.TrimSpace(strings.TrimSuffix(num, u.suffix))
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if v <= 0 || v > (1<<62)/mult {
		return 0, fmt.Errorf("size %q out of range", s)
	}
	return v * mult, nil
}

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list graph file")
		dataset   = flag.String("dataset", "", "registry dataset to generate instead of -graph")
		scale     = flag.Float64("scale", 1.0, "scale for -dataset")
		addr      = flag.String("addr", ":8080", "listen address")
		landmarks = flag.Int("landmarks", 8, "distance-oracle landmarks (0 disables)")
		fcache    = flag.Int("frontier-cache", 0, "frontier-cache entries (0 = default, negative disables)")
		memBudget = flag.String("mem-budget", "",
			"byte budget for cache + scratch + join build sides, e.g. 256MiB (empty = unlimited)")
		accessLog = flag.Bool("access-log", false, "write a JSON access-log line per request to stderr")
		shedUtil  = flag.Float64("shed-utilization", 0,
			"pool utilization at which /readyz sheds (0 = default, negative disables)")
		shedOracleLag = flag.Duration("shed-oracle-lag", 0,
			"oracle rebuild lag past which /readyz sheds with 503 (0 disables)")
		shards = flag.Int("shards", 1,
			"partition the graph into N edge-cut shards with per-shard engines")
		shardDegreeAware = flag.Bool("shard-degree-aware", false,
			"use degree-aware partitioning (hub out-edges co-resident) instead of hashed ownership")
	)
	flag.Parse()

	var (
		g    *pathenum.Graph
		orig []int64
		err  error
	)
	switch {
	case *graphPath != "":
		f, ferr := os.Open(*graphPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		g, orig, err = pathenum.ReadGraph(f)
		f.Close()
	case *dataset != "":
		var d gen.Dataset
		d, err = gen.Lookup(*dataset)
		if err == nil {
			g = d.Scale(*scale).Build()
		}
	default:
		err = fmt.Errorf("one of -graph or -dataset is required")
	}
	if err != nil {
		log.Fatal("pathenumd: ", err)
	}

	cfg := pathenum.EngineConfig{Workers: 8, FrontierCache: *fcache}
	if *memBudget != "" {
		n, perr := parseBytes(*memBudget)
		if perr != nil {
			log.Fatal("pathenumd: -mem-budget: ", perr)
		}
		cfg.MemoryBudgetBytes = n
	}
	if *landmarks > 0 {
		oracle, oerr := pathenum.BuildOracle(g, *landmarks)
		if oerr != nil {
			log.Fatal("pathenumd: oracle: ", oerr)
		}
		cfg.Oracle = oracle
		// Publishing inserts hand oracle reconstruction to the engine's
		// background worker; without this the first write would drop the
		// oracle for the rest of the process lifetime.
		cfg.OracleLandmarks = *landmarks
	}
	var engine server.Engine
	if *shards > 1 {
		strategy := shard.Hash
		if *shardDegreeAware {
			strategy = shard.DegreeAware
		}
		sharded, serr := shard.New(g, *shards, shard.Config{Strategy: strategy, Engine: cfg})
		if serr != nil {
			log.Fatal("pathenumd: ", serr)
		}
		log.Printf("pathenumd: %d shards, %d cut edges", sharded.Shards(), sharded.CutEdges())
		engine = sharded
	} else {
		single, serr := pathenum.NewEngine(g, cfg)
		if serr != nil {
			log.Fatal("pathenumd: ", serr)
		}
		engine = single
	}

	scfg := server.Config{ShedUtilization: *shedUtil, ShedOracleLag: *shedOracleLag}
	if *accessLog {
		scfg.AccessLog = os.Stderr
	}
	srv := server.New(engine, orig, scfg)
	log.Printf("pathenumd: serving %v on %s", g, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}
