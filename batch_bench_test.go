// Benchmarks for the batch surface: ExecuteBatch (dedup, endpoint order,
// single-flight frontier fill) against the naive ExecuteAllContext fan-out
// on shared-endpoint workloads — the standing shared-vs-naive check.
package pathenum

import (
	"context"
	"math/rand"
	"testing"

	"pathenum/internal/gen"
)

// sharedSourceBatch builds a 64-query batch all sharing one high-degree
// source — the workload where the naive fan-out repeats the identical
// forward BFS 64 times.
func sharedSourceBatch(g *Graph, count, k int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	hub := VertexID(0) // Barabási–Albert vertex 0 is a high-degree hub
	n := g.NumVertices()
	queries := make([]Query, 0, count)
	for len(queries) < count {
		t := VertexID(rng.Intn(n))
		if t == hub {
			continue
		}
		queries = append(queries, Query{S: hub, T: t, K: k})
	}
	return queries
}

func benchBatchEngine(b *testing.B) (*Engine, []Query) {
	b.Helper()
	g := gen.BarabasiAlbert(20000, 4, 42)
	e, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	return e, sharedSourceBatch(g, 64, 4, 7)
}

// BenchmarkBatchSharedSource compares ExecuteBatch against the naive
// fan-out on a 64-query shared-source batch. The shared run reports the
// batch's BFS-pass accounting; correctness is cross-checked against
// per-query enumeration before timing starts.
func BenchmarkBatchSharedSource(b *testing.B) {
	e, queries := benchBatchEngine(b)
	ctx := context.Background()

	// Cross-check (untimed): batch counts must equal per-query counts.
	results, errs, _ := e.ExecuteBatch(ctx, queries, Options{})
	for i, q := range queries {
		if errs[i] != nil {
			b.Fatal(errs[i])
		}
		want, err := Count(e.Graph(), q)
		if err != nil {
			b.Fatal(err)
		}
		if results[i].Counters.Results != want {
			b.Fatalf("%v: batch count %d != per-query %d", q, results[i].Counters.Results, want)
		}
	}

	b.Run("shared", func(b *testing.B) {
		var saved, passes int
		for i := 0; i < b.N; i++ {
			_, _, stats := e.ExecuteBatch(ctx, queries, Options{})
			saved, passes = stats.BFSPassesSaved, stats.BFSPassesRun
		}
		b.ReportMetric(float64(passes), "bfs-passes")
		b.ReportMetric(float64(saved), "bfs-saved")
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.ExecuteAllContext(ctx, queries, Options{})
		}
		b.ReportMetric(float64(2*len(queries)), "bfs-passes")
	})
}

// BenchmarkBatchMixed runs a mixed workload with shared-source clusters,
// shared-target clusters, duplicates and loners.
func BenchmarkBatchMixed(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 4, 42)
	e, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	queries := batchWorkload(rng, g.NumVertices(), 64)
	ctx := context.Background()

	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.ExecuteBatch(ctx, queries, Options{})
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.ExecuteAllContext(ctx, queries, Options{})
		}
	})
}
