package pathenum

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"pathenum/internal/gen"
)

// batchWorkload samples a mixed batch: shared-source runs, shared-target
// runs, exact duplicates and loners — the workload ExecuteBatch exists for.
func batchWorkload(rng *rand.Rand, n, count int) []Query {
	var qs []Query
	v := func() VertexID { return VertexID(rng.Intn(n)) }
	for len(qs) < count {
		k := 3 + rng.Intn(3)
		switch rng.Intn(4) {
		case 0:
			s := v()
			for i := 0; i < 4 && len(qs) < count; i++ {
				qs = append(qs, Query{S: s, T: v(), K: k})
			}
		case 1:
			t := v()
			for i := 0; i < 4 && len(qs) < count; i++ {
				qs = append(qs, Query{S: v(), T: t, K: k})
			}
		case 2:
			if len(qs) > 0 {
				qs = append(qs, qs[rng.Intn(len(qs))])
			}
		default:
			qs = append(qs, Query{S: v(), T: v(), K: k})
		}
	}
	return qs
}

// TestExecuteBatchMatchesEnumerate is the acceptance cross-check: batch
// execution (dedup + shared frontiers + scheduling) must report exactly
// the per-query counts of a plain Enumerate on random graphs.
func TestExecuteBatchMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 5; trial++ {
		n := 50 + rng.Intn(100)
		g := gen.BarabasiAlbert(n, 4, rng.Int63())
		e, err := NewEngine(g, EngineConfig{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		queries := batchWorkload(rng, n, 32)
		results, errs, stats := e.ExecuteBatch(context.Background(), queries, Options{})
		for i, q := range queries {
			if q.Validate(g) != nil {
				if errs[i] == nil {
					t.Fatalf("invalid query %d accepted", i)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("query %d: %v", i, errs[i])
			}
			want, werr := Enumerate(g, q, Options{})
			if werr != nil {
				t.Fatal(werr)
			}
			if results[i].Counters.Results != want.Counters.Results {
				t.Fatalf("trial %d %v: batch count %d != Enumerate %d",
					trial, q, results[i].Counters.Results, want.Counters.Results)
			}
			if !results[i].Completed {
				t.Fatalf("trial %d %v: batch run did not complete", trial, q)
			}
		}
		if stats.Queries != len(queries) || stats.BFSPasses > stats.BFSPassesNaive {
			t.Fatalf("implausible stats: %+v", stats)
		}
	}
}

// TestExecuteBatchDedupFanOut: duplicate queries share one execution and
// the same Result pointer.
func TestExecuteBatchDedupFanOut(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 1, T: 7, K: 4}
	queries := []Query{q, q, q}
	results, errs, stats := e.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if results[0] != results[1] || results[1] != results[2] {
		t.Fatal("duplicates should share one Result")
	}
	if stats.Deduped != 2 || stats.Unique != 1 {
		t.Fatalf("stats = %+v, want Deduped=2 Unique=1", stats)
	}
}

// TestExecuteBatchConstraints: a constraint-carrying batch (edge
// predicate shared batch-wide) agrees with constrained per-query runs.
func TestExecuteBatchConstraints(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := func(from, to VertexID) bool { return (int(from)+int(to))%3 != 0 }
	var queries []Query
	for i := 1; i <= 8; i++ {
		queries = append(queries, Query{S: 0, T: VertexID(i * 7), K: 4})
	}
	results, errs, _ := e.ExecuteBatch(context.Background(), queries, Options{Predicate: pred})
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, werr := Enumerate(g, q, Options{Predicate: pred})
		if werr != nil {
			t.Fatal(werr)
		}
		if results[i].Counters.Results != want.Counters.Results {
			t.Fatalf("%v: constrained batch count %d != Enumerate %d",
				q, results[i].Counters.Results, want.Counters.Results)
		}
	}
}

// TestExecuteBatchCancelledMidway: fail-fast cancellation must mark
// not-yet-started queries with ctx.Err() and return promptly.
func TestExecuteBatchCancelledMidway(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 12)
	e, err := NewEngine(g, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for i := 1; i < 48; i++ {
		queries = append(queries, Query{S: 0, T: VertexID(i), K: 8})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{Emit: func([]VertexID) bool {
		once.Do(cancel)
		return true
	}}
	_, errs, _ := e.ExecuteBatch(ctx, queries, opts)
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no query observed the cancellation")
	}
}

// TestExecuteAllContextCancelDoesNotStallOnSemaphore: regression test for
// the fail-fast dispatch loop — with the pool saturated by a slow query,
// cancellation must not block behind the semaphore acquire.
func TestExecuteAllContextCancelDoesNotStallOnSemaphore(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 12)
	e, err := NewEngine(g, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for i := 1; i < 48; i++ {
		queries = append(queries, Query{S: 0, T: VertexID(i), K: 8})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	// The first emitted path cancels the batch while the single worker is
	// mid-query; before the fix the dispatch loop would only notice after
	// the slow query freed its slot.
	opts := Options{Emit: func([]VertexID) bool {
		once.Do(cancel)
		return true
	}}
	_, errs := e.ExecuteAllContext(ctx, queries, opts)
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no query observed the cancellation")
	}
}

// TestExecuteBatchBuildsNoRefusedFrontier: the scheduler asks the cache's
// admission check before it builds a side only one member uses, so a
// shared-source batch over low-degree targets — every backward side below
// CacheAdmitDegree — builds none of them (each would have been a whole
// k-ball labeling thrown away on deposit) and runs them as the members' own
// labelings instead: no refused deposit, one counted pass per side as
// planned, results equal to the naive fan-out.
func TestExecuteBatchBuildsNoRefusedFrontier(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 11)
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hub := VertexID(0)
	var queries []Query
	for v := VertexID(1); int(v) < g.NumVertices() && len(queries) < 24; v++ {
		if g.InDegree(v) < DefaultCacheAdmitDegree {
			queries = append(queries, Query{S: hub, T: v, K: 4})
		}
	}
	if len(queries) < 24 {
		t.Fatalf("fixture: %d low-degree targets, want 24", len(queries))
	}
	ctx := context.Background()
	results, errs, stats := e.ExecuteBatch(ctx, queries, Options{})
	want, wantErrs := e.ExecuteAllContext(ctx, queries, Options{})
	for i, q := range queries {
		if errs[i] != nil || wantErrs[i] != nil {
			t.Fatalf("%v: batch err %v, fan-out err %v", q, errs[i], wantErrs[i])
		}
		if results[i].Counters.Results != want[i].Counters.Results {
			t.Fatalf("%v: batch count %d != fan-out %d", q, results[i].Counters.Results, want[i].Counters.Results)
		}
	}
	if stats.DepositsRefused != 0 {
		t.Fatalf("DepositsRefused = %d: the batch built frontiers its cache refuses", stats.DepositsRefused)
	}
	if stats.BFSPassesRun != stats.BFSPasses {
		t.Fatalf("BFSPassesRun = %d, planned %d", stats.BFSPassesRun, stats.BFSPasses)
	}
	if cs := e.CacheStats(); cs.Entries != 1 {
		t.Fatalf("cache holds %d frontiers after the batch, want only the hub's forward one (shared by every member)", cs.Entries)
	}
}
