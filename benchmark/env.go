package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"pathenum"
	"pathenum/internal/server"
	"pathenum/internal/shard"
	"pathenum/internal/workload"
)

// daemonLandmarks and daemonWorkers are cmd/pathenumd's defaults, which
// serve_mixed reproduces.
const (
	daemonLandmarks = 8
	daemonWorkers   = 8
)

// tracedBudget turns the engine's byte ledger on in traced runs, so that
// mem.resident_peak_mb and mem.join_fallbacks have something to read. It
// is far above what any workload holds, so it never binds.
const tracedBudget = 1 << 30

// env is one set-up system under test.
type env struct {
	g0  *pathenum.Graph // the graph as generated, before any insert
	eng server.Engine   // *pathenum.Engine or *shard.Engine
	// base is the server's URL (kindServe, and traced runs of any kind).
	base string
	stop func()

	graphS, oracleS, engineS float64 // set-up breakdown, seconds
}

// engineConfig is the engine configuration of the workload: the zero
// config in-process, pathenumd's defaults behind the server.
func (s spec) engineConfig(g *pathenum.Graph, traced bool) (pathenum.EngineConfig, error) {
	var cfg pathenum.EngineConfig
	if traced {
		cfg.MemoryBudgetBytes = tracedBudget
	}
	if s.kind != kindServe {
		return cfg, nil
	}
	cfg.Workers = daemonWorkers
	cfg.SnapshotEvery = 1
	oracle, err := pathenum.BuildOracle(g, daemonLandmarks)
	if err != nil {
		return cfg, err
	}
	cfg.Oracle = oracle
	cfg.OracleLandmarks = daemonLandmarks
	return cfg, nil
}

// newEngine is the workload's engine over g: two hash shards for kindShard,
// a single image otherwise.
func (s spec) newEngine(g *pathenum.Graph, cfg pathenum.EngineConfig) (server.Engine, error) {
	if s.kind == kindShard {
		return shard.New(g, 2, shard.Config{Engine: cfg})
	}
	return pathenum.NewEngine(g, cfg)
}

// setup builds the workload's system from nothing: graph generation,
// oracle, engine (or sharded engine), and for kindServe or withServer the
// HTTP server on a loopback listener, and the first op (see firstOp).
func setup(s spec, traced, withServer bool) (*env, error) {
	e := &env{stop: func() {}}
	t0 := time.Now()
	g, err := s.buildGraph()
	if err != nil {
		return nil, err
	}
	e.g0 = g
	e.graphS = time.Since(t0).Seconds()

	t1 := time.Now()
	cfg, err := s.engineConfig(g, traced)
	if err != nil {
		return nil, err
	}
	e.oracleS = time.Since(t1).Seconds()

	t2 := time.Now()
	if e.eng, err = s.newEngine(g, cfg); err != nil {
		return nil, err
	}
	if s.kind == kindServe || withServer {
		if e.base, e.stop, err = serve(e.eng); err != nil {
			return nil, err
		}
	}
	if err := e.firstOp(s); err != nil {
		e.stop()
		return nil, err
	}
	e.engineS = time.Since(t2).Seconds()
	return e, nil
}

// firstOp sends one one-hop query along the graph's first edge the way the
// workload's ops travel, so that what the system initialises lazily on its
// first request (a pooled session's O(|V|) scratch, the connection) is part
// of set-up. The query is the same for every seed.
func (e *env) firstOp(s spec) error {
	var q workload.Query
	for v := 0; v < e.g0.NumVertices(); v++ {
		if nb := e.g0.OutNeighbors(pathenum.VertexID(v)); len(nb) > 0 {
			q = workload.Query{S: pathenum.VertexID(v), T: nb[0]}
			break
		}
	}
	if s.kind != kindServe {
		return streamOp(e.eng, q, 1, 0, nil, nil, 0).err
	}
	cl := newClient(e.base)
	defer cl.close()
	o := op{kind: opQuery, queries: []workload.Query{q}, body: queryBody(q, 1, 0)}
	return cl.do(&o, nil, nil, 0).err
}

// serve puts eng behind internal/server on a loopback TCP listener and
// returns its base URL and a stop function that waits for the server to
// end.
func serve(eng server.Engine) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: server.New(eng, nil, server.Config{}).Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			_ = srv.Close() // a request outlived the grace period
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// scanRate is the in-run calibration: a full OutNeighbors scan of g,
// repeated for at least 100 ms, in million edges per second. It depends on
// the machine and not on any layer above the graph, so a shift between the
// start and the end of a run marks the run noisy.
func scanRate(g *pathenum.Graph) float64 {
	n := g.NumVertices()
	var edges, sink int64
	t0 := time.Now()
	for time.Since(t0) < 100*time.Millisecond {
		for v := 0; v < n; v++ {
			for _, w := range g.OutNeighbors(pathenum.VertexID(v)) {
				sink += int64(w)
			}
		}
		edges += g.NumEdges()
	}
	if sink < 0 { // keeps the scan from being optimized away
		panic("vertex ids are non-negative")
	}
	return float64(edges) / 1e6 / time.Since(t0).Seconds()
}
