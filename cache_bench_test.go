// Benchmarks for the cross-batch frontier cache: a repeat shared-hub
// batch against a cold engine vs a warm one, plus the single-query hot
// path.
package pathenum

import (
	"context"
	"testing"

	"pathenum/internal/gen"
)

// BenchmarkCacheRepeatHubBatch measures the cache's reason to exist: the
// same shared-hub batch executed again and again (a popular account
// screened in every fraud batch). The warm sub-benchmark pins the
// acceptance property — zero BFS passes run — via the stats counters.
func BenchmarkCacheRepeatHubBatch(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 42)
	queries := repeatHubBatch(g, 0, 64, 4, 7)
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		// A fresh engine per iteration: every batch builds and
		// deposits its frontiers.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e, err := NewEngine(g, EngineConfig{Workers: 4, FrontierCache: 2 * len(queries), CacheAdmitDegree: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			_, _, stats := e.ExecuteBatch(ctx, queries, Options{})
			if stats.BFSPassesRun == 0 {
				b.Fatal("cold batch cannot run zero BFS passes")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		e, err := NewEngine(g, EngineConfig{Workers: 4, FrontierCache: 2 * len(queries), CacheAdmitDegree: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, errs, _ := e.ExecuteBatch(ctx, queries, Options{}); errs[0] != nil {
			b.Fatal(errs[0])
		}
		var run, hits int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _, stats := e.ExecuteBatch(ctx, queries, Options{})
			run, hits = stats.BFSPassesRun, stats.FrontierCacheHits
		}
		b.ReportMetric(float64(run), "bfs-passes-run")
		b.ReportMetric(float64(hits), "cache-hits")
		if run != 0 {
			b.Fatalf("warm repeat batch ran %d BFS passes, want 0", run)
		}
	})
}

// BenchmarkCacheSingleQueryWarm measures the single-query path against a
// warmed cache: ExecuteWith serves the hub side from the cache and runs
// one scratch BFS instead of two.
func BenchmarkCacheSingleQueryWarm(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 42)
	queries := repeatHubBatch(g, 0, 64, 4, 7)
	ctx := context.Background()

	cold, err := NewEngine(g, EngineConfig{Workers: 4, FrontierCache: -1})
	if err != nil {
		b.Fatal(err)
	}
	warm, err := NewEngine(g, EngineConfig{Workers: 4, FrontierCache: 2 * len(queries), CacheAdmitDegree: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, errs, _ := warm.ExecuteBatch(ctx, queries, Options{}); errs[0] != nil {
		b.Fatal(errs[0])
	}
	q := queries[0]

	b.Run("nocache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cold.ExecuteWith(ctx, q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		before := warm.CacheStats().Hits
		for i := 0; i < b.N; i++ {
			if _, err := warm.ExecuteWith(ctx, q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		if warm.CacheStats().Hits == before {
			b.Fatal("warm single query never hit the cache")
		}
	})
}
