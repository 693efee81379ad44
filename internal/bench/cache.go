package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"pathenum/internal/batch"
	"pathenum/internal/cache"
	"pathenum/internal/core"
	"pathenum/internal/graph"
	"pathenum/internal/workload"
)

// CacheRow is the per-dataset report of the cross-batch frontier cache on
// a repeat-hub workload: the same shared-endpoint batch executed twice
// against one scheduler + cache pair.
type CacheRow struct {
	Dataset string
	Queries int
	Unique  int

	// ColdBFS / WarmBFS are the BFS passes actually run by the first and
	// second execution (batch.Stats.BFSPassesRun); the acceptance target
	// is WarmBFS == 0.
	ColdBFS int
	WarmBFS int
	// WarmHits counts frontier-cache hits during the warm call.
	WarmHits int

	ColdMs  float64
	WarmMs  float64
	Speedup float64
}

// CacheResult is the cache-experiment report.
type CacheResult struct {
	K         int
	BatchSize int
	Rows      []CacheRow
}

// cacheProvider adapts a cache.FrontierCache to the scheduler's
// FrontierProvider seam, exactly as the public engine does (reproduced
// here so the bench layer stays below the engine and avoids an import
// cycle with the root package).
type cacheProvider struct {
	c   *cache.FrontierCache
	ver graph.Version
}

func (p *cacheProvider) Lookup(origin graph.VertexID, forward bool, k int) *core.Frontier {
	return p.c.Get(cache.Key{Origin: origin, Forward: forward}, k, p.ver)
}

// Admits and Store deposit unconditionally: the bench isolates cache
// mechanics, so no admission policy applies (the engine's provider layers
// one on).
func (p *cacheProvider) Admits(graph.VertexID, bool) bool { return true }

func (p *cacheProvider) Store(f *core.Frontier, uses int) bool { return p.c.Put(f) }

// Cache measures the cross-batch frontier cache: one generated
// shared-endpoint batch (workload.GenerateBatch) executed twice through
// the batch subsystem with a shared cache. The first call plans, builds
// and deposits every frontier; the second models the repeat hub of the
// dynamic e-commerce scenario (§7.2) — a popular endpoint queried in
// every fraud batch — and should be served entirely from the cache, with
// zero BFS passes run.
func Cache(cfg Config) (*CacheResult, error) {
	cfg = cfg.normalized()
	datasets := cfg.Datasets
	if len(datasets) == 0 {
		datasets = []string{"up", "db", "ep", "wt"}
	}
	res := &CacheResult{K: cfg.K, BatchSize: cfg.Queries}
	for _, name := range datasets {
		g, err := loadDataset(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		bqs, err := workload.GenerateBatch(g, workload.BatchOptions{
			Count:     cfg.Queries,
			K:         cfg.K,
			GroupSize: 8,
			Seed:      cfg.Seed,
		})
		if err != nil && len(bqs) == 0 {
			continue // dataset yields no in-range batch at this scale
		}
		queries := make([]core.Query, len(bqs))
		for i, q := range bqs {
			queries[i] = core.Query{S: q.S, T: q.T, K: q.K}
		}
		opts := core.Options{Timeout: cfg.TimeLimit}
		ctx := context.Background()

		pool := &sync.Pool{New: func() any { return core.NewSession(g, nil) }}
		// The cache must hold every frontier of the batch for the warm
		// call to run BFS-free (one entry per unique endpoint side).
		sch := &batch.Scheduler{
			Workers:   batchWorkers,
			Acquire:   func() *core.Session { return pool.Get().(*core.Session) },
			Release:   func(s *core.Session) { pool.Put(s) },
			Frontiers: &cacheProvider{c: cache.New(2 * len(queries)), ver: g.Version()},
		}
		plan := batch.NewPlanner(g).Plan(queries)

		coldStart := time.Now()
		_, _, coldStats := sch.Execute(ctx, g, plan, opts)
		coldMs := ms(time.Since(coldStart))

		warmStart := time.Now()
		_, _, warmStats := sch.Execute(ctx, g, plan, opts)
		warmMs := ms(time.Since(warmStart))

		row := CacheRow{
			Dataset:  name,
			Queries:  coldStats.Queries,
			Unique:   coldStats.Unique,
			ColdBFS:  coldStats.BFSPassesRun,
			WarmBFS:  warmStats.BFSPassesRun,
			WarmHits: warmStats.FrontierCacheHits,
			ColdMs:   coldMs,
			WarmMs:   warmMs,
		}
		if warmMs > 0 {
			row.Speedup = coldMs / warmMs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the cache experiment report.
func (r *CacheResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Frontier cache: repeat shared-hub batch, cold vs warm call (%d-query batches, k=%d, %d workers)\n",
		r.BatchSize, r.K, batchWorkers)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "dataset\tqueries\tunique\tBFS cold\tBFS warm\twarm hits\tcold ms\twarm ms\tspeedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.3g\t%.3g\t%.2fx\n",
			row.Dataset, row.Queries, row.Unique,
			row.ColdBFS, row.WarmBFS, row.WarmHits, row.ColdMs, row.WarmMs, row.Speedup)
	}
	w.Flush()
	return b.String()
}
