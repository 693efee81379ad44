package pathenum

import (
	"context"
	"testing"

	"pathenum/internal/core"
	"pathenum/internal/gen"
)

// TestEngineMemBudgetPathEquality: the budget changes residency and
// plans, never answers — the same workload through budgets from tight to
// a pathological 1 byte returns exactly the unbudgeted counts, across
// several sampled workloads, both fanned out over the pool and one query
// at a time; in the sequential pass the ledger is read after every query
// and must stay within the effective budget.
func TestEngineMemBudgetPathEquality(t *testing.T) {
	g := engineGraph()
	scratch := int64(4) * core.SessionScratchBytes(g.NumVertices())
	for _, seed := range []int64{7, 19, 101} {
		queries := engineQueries(24, seed, g.NumVertices())
		base, err := NewEngine(g, EngineConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.CountAll(queries)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{8 * scratch, scratch + 64, 1} {
			e, err := NewEngine(g, EngineConfig{Workers: 4, MemoryBudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.CountAll(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d budget %d query %d (%v): budgeted %d, unbudgeted %d",
						seed, budget, i, queries[i], got[i], want[i])
				}
			}
			if ms := e.MemStats(); ms.UsedBytes > ms.BudgetBytes {
				t.Fatalf("seed %d budget %d: ledger %d exceeds effective budget %d",
					seed, budget, ms.UsedBytes, ms.BudgetBytes)
			}

			// The same workload one query at a time on a cold engine, with
			// the ledger read after every query: the budget must hold
			// between deposits and fallbacks, not only once the pool has
			// drained.
			seq, err := NewEngine(g, EngineConfig{Workers: 4, MemoryBudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				res, err := seq.ExecuteWith(context.Background(), q, Options{})
				if err != nil {
					t.Fatalf("seed %d budget %d query %d (%v): %v", seed, budget, i, q, err)
				}
				if res.Counters.Results != want[i] {
					t.Fatalf("seed %d budget %d query %d (%v): sequential budgeted %d, unbudgeted %d",
						seed, budget, i, q, res.Counters.Results, want[i])
				}
				if ms := seq.MemStats(); ms.UsedBytes > ms.BudgetBytes {
					t.Fatalf("seed %d budget %d after query %d: ledger %d exceeds effective budget %d",
						seed, budget, i, ms.UsedBytes, ms.BudgetBytes)
				}
			}
		}
	}
}

// TestEngineMemJoinFallback: a forced-join query whose predicted build
// side cannot fit the budget degrades to the DFS plan — same answer,
// MemFallback flagged, fallback counter incremented — instead of
// erroring or materializing past the limit.
func TestEngineMemJoinFallback(t *testing.T) {
	g := gen.Layered(8, 4) // dense layered graph: join builds a real side
	q := Query{S: 0, T: 1, K: 6}

	free, err := NewEngine(g, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	unbudgeted, err := free.ExecuteWith(context.Background(), q, Options{Method: Join})
	if err != nil {
		t.Fatal(err)
	}
	if unbudgeted.Plan.Method != Join || unbudgeted.MemFallback {
		t.Fatalf("unbudgeted forced join ran %v (fallback=%v), want Join", unbudgeted.Plan.Method, unbudgeted.MemFallback)
	}

	// A 1-byte request floors at the mandatory scratch, leaving zero
	// headroom for the build class: every join must fall back.
	capped, err := NewEngine(g, EngineConfig{Workers: 1, MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := capped.ExecuteWith(context.Background(), q, Options{Method: Join})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Method != DFS || !res.MemFallback {
		t.Fatalf("capped forced join ran %v (fallback=%v), want DFS fallback", res.Plan.Method, res.MemFallback)
	}
	if res.Counters.Results != unbudgeted.Counters.Results {
		t.Fatalf("fallback returned %d paths, join %d — fallback changed answers",
			res.Counters.Results, unbudgeted.Counters.Results)
	}
	if ms := capped.MemStats(); ms.JoinFallbacks == 0 {
		t.Fatalf("MemStats.JoinFallbacks = 0 after a demoted join: %+v", ms)
	}
}

// TestEngineMemStats: the ledger splits cleanly by class, the scratch
// charge matches the worker pool, and usage respects the effective
// budget.
func TestEngineMemStats(t *testing.T) {
	g := engineGraph()
	workers := 4
	scratch := int64(workers) * core.SessionScratchBytes(g.NumVertices())
	e, err := NewEngine(g, EngineConfig{Workers: workers, MemoryBudgetBytes: 4 * scratch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CountAll(engineQueries(16, 3, g.NumVertices())); err != nil {
		t.Fatal(err)
	}
	ms := e.MemStats()
	if ms.BudgetBytes != 4*scratch {
		t.Fatalf("BudgetBytes = %d, want %d", ms.BudgetBytes, 4*scratch)
	}
	if ms.ScratchBytes != scratch {
		t.Fatalf("ScratchBytes = %d, want %d (%d workers)", ms.ScratchBytes, scratch, workers)
	}
	if sum := ms.CacheBytes + ms.ScratchBytes + ms.BuildBytes; ms.UsedBytes != sum {
		t.Fatalf("UsedBytes %d != class sum %d (%+v)", ms.UsedBytes, sum, ms)
	}
	if ms.UsedBytes > ms.BudgetBytes {
		t.Fatalf("UsedBytes %d exceeds budget %d", ms.UsedBytes, ms.BudgetBytes)
	}

	// Unbudgeted engines report a zero ledger.
	free, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ms := free.MemStats(); ms != (MemStats{}) {
		t.Fatalf("unbudgeted MemStats = %+v, want zero", ms)
	}
}

// TestEngineWarmCache: operator-named endpoints are BFS'd and deposited
// up front — bypassing the degree gate — so the first matching query is
// a cache hit; a disabled cache warms nothing; bad endpoints error.
func TestEngineWarmCache(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eps := []WarmEndpoint{
		{Origin: 3, Forward: true, K: 4},
		{Origin: 9, Forward: false, K: 4},
	}
	n, err := e.WarmCache(ctx, eps)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(eps) {
		t.Fatalf("warmed %d endpoints, want %d", n, len(eps))
	}
	before := e.CacheStats().Hits
	if _, err := e.ExecuteWith(ctx, Query{S: 3, T: 9, K: 4}, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats().Hits; after < before+2 {
		t.Fatalf("warmed query hit %d cached sides, want 2", after-before)
	}

	if _, err := e.WarmCache(ctx, []WarmEndpoint{{Origin: 3, Forward: true, K: 0}}); err == nil {
		t.Fatal("K=0 endpoint must error")
	}
	if _, err := e.WarmCache(ctx, []WarmEndpoint{{Origin: VertexID(g.NumVertices() + 5), Forward: true, K: 4}}); err == nil {
		t.Fatal("out-of-range origin must error")
	}

	off, err := NewEngine(g, EngineConfig{FrontierCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := off.WarmCache(ctx, eps); err != nil || n != 0 {
		t.Fatalf("disabled cache warmed %d (%v), want 0, nil", n, err)
	}
}

// TestWarmCacheBuildsNothingThatCannotFit: under a budget no frontier can
// fit, WarmCache asks the cache before searching, so it warms nothing and
// the cache refuses nothing — no BFS was run only to be thrown away. A bad
// endpoint is still an error.
func TestWarmCacheBuildsNothingThatCannotFit(t *testing.T) {
	d, err := gen.Lookup("ep")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Scale(0.1).Build()
	e, err := NewEngine(g, EngineConfig{MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n, err := e.WarmCache(ctx, []WarmEndpoint{{Origin: 3, Forward: true, K: 4}, {Origin: 9, Forward: false, K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rejected := e.CacheStats().Rejected; n != 0 || rejected != 0 {
		t.Fatalf("warmed %d endpoints with %d refused deposits, want 0 and 0", n, rejected)
	}
	if _, err := e.WarmCache(ctx, []WarmEndpoint{{Origin: VertexID(g.NumVertices()), Forward: true, K: 4}}); err == nil {
		t.Fatal("out-of-range origin must error under any budget")
	}
}
