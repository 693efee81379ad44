package pathenum

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pathenum/internal/baseline"
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
// execution (dedup + endpoint order + single-flight frontiers) must report
// exactly the per-query counts of a plain Enumerate on random graphs.
func TestExecuteBatchMatchesEnumerate(t *testing.T) {
	checkBatchMatchesEnumerate(t, 202, 50, runExecuteBatch)
}

// TestStreamBatchMatchesEnumerate is the same cross-check through
// StreamBatch, on smaller graphs where the random endpoints collide more
// often (more duplicates, more shared sides per batch).
func TestStreamBatchMatchesEnumerate(t *testing.T) {
	checkBatchMatchesEnumerate(t, 31, 30, runStreamBatch)
}

// checkBatchMatchesEnumerate runs five random mixed batches, on graphs of
// minN to 3*minN vertices, through run and compares every position with a
// plain Enumerate.
func checkBatchMatchesEnumerate(t *testing.T, seed int64, minN int, run batchRun) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 5; trial++ {
		n := minN + rng.Intn(2*minN)
		g := gen.BarabasiAlbert(n, 4, rng.Int63())
		e, err := NewEngine(g, EngineConfig{Workers: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		queries := batchWorkload(rng, n, 32)
		results, errs, stats := run(e, context.Background(), queries, Options{})
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
		if stats.Queries != len(queries) || stats.BFSPassesRun > stats.BFSPassesNaive ||
			stats.BFSPassesRun+stats.BFSPassesSaved != stats.BFSPassesNaive {
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

// TestBatchDedupKeysOnWholeTriple: deduplication keys on the whole
// (s, t, k) triple — the same endpoints at another k is a separate
// execution — and every duplicate position receives the one execution's
// *Result, on both batch surfaces.
func TestBatchDedupKeysOnWholeTriple(t *testing.T) {
	e, err := NewEngine(engineGraph(), EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{S: 0, T: 9, K: 4},
		{S: 0, T: 9, K: 4}, // exact duplicate
		{S: 0, T: 9, K: 5}, // different k: not a duplicate
		{S: 0, T: 9, K: 4}, // another duplicate
	}
	for name, run := range batchSurfaces {
		t.Run(name, func(t *testing.T) {
			results, errs, stats := run(e, context.Background(), queries, Options{})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("position %d: %v", i, err)
				}
			}
			if results[0] != results[1] || results[0] != results[3] {
				t.Fatal("duplicates of (0, 9, 4) hold different Results")
			}
			if results[2] == results[0] {
				t.Fatal("k=5 shares the k=4 Result")
			}
			if stats.Queries != 4 || stats.Unique != 2 || stats.Deduped != 2 || stats.BFSPassesNaive != 8 {
				t.Fatalf("stats = %+v, want Queries=4 Unique=2 Deduped=2 BFSPassesNaive=8", stats)
			}
		})
	}
}

// batchRun runs one batch through one of the two batch surfaces and hands
// back the per-position results, errors and stats.
type batchRun func(*Engine, context.Context, []Query, Options) ([]*Result, []error, *BatchStats)

// runExecuteBatch is the materializing surface.
func runExecuteBatch(e *Engine, ctx context.Context, queries []Query, opts Options) ([]*Result, []error, *BatchStats) {
	return e.ExecuteBatch(ctx, queries, opts)
}

// runStreamBatch is the streaming surface, collected back into input order.
func runStreamBatch(e *Engine, ctx context.Context, queries []Query, opts Options) ([]*Result, []error, *BatchStats) {
	results, errs := make([]*Result, len(queries)), make([]error, len(queries))
	var stats *BatchStats
	for item := range e.StreamBatch(ctx, queries, opts) {
		if item.Index < 0 {
			stats = item.Stats
			continue
		}
		results[item.Index], errs[item.Index] = item.Result, item.Err
	}
	return results, errs, stats
}

// batchSurfaces names both surfaces, for tests that hold on each.
var batchSurfaces = map[string]batchRun{"ExecuteBatch": runExecuteBatch, "StreamBatch": runStreamBatch}

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

// TestExecuteBatchPreCancelledFailsFast: a batch whose context is already
// done runs nothing; every slot carries the context error.
func TestExecuteBatchPreCancelledFailsFast(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := engineQueries(8, 3, g.NumVertices())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs, _ := e.ExecuteBatch(ctx, queries, Options{})
	for i := range queries {
		if !errors.Is(errs[i], context.Canceled) || results[i] != nil {
			t.Fatalf("slot %d: err=%v result=%v, want fail-fast ctx error", i, errs[i], results[i])
		}
	}
}

// TestExecuteBatchSharedOptions: batch-wide overrides reach every unique
// query and, through the shared Result, every duplicate.
func TestExecuteBatchSharedOptions(t *testing.T) {
	g := gen.Layered(5, 3)
	e, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 1, K: 4} // 125 paths
	queries := []Query{q, {S: 0, T: 1, K: 5}, q}
	results, errs, _ := e.ExecuteBatch(context.Background(), queries, Options{Limit: 7})
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i].Counters.Results != 7 {
			t.Fatalf("slot %d: %d results, want 7", i, results[i].Counters.Results)
		}
	}
}

// TestExecuteAllIsOneBatch pins ExecuteAll as a collector over the batch:
// duplicates share one read-only *Result, invalid queries fill their own
// error slots, and the call is one op="batch" request — its members are
// not single-query executions.
func TestExecuteAllIsOneBatch(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 1, T: 7, K: 4}
	queries := []Query{q, {S: 5, T: 5, K: 4}, q, {S: 0, T: 9999, K: 4}, q}
	results, errs := e.ExecuteAll(queries)
	for _, i := range []int{0, 2, 4} {
		if errs[i] != nil || results[i] == nil {
			t.Fatalf("slot %d = %v, %v; want a result", i, results[i], errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("slot %d has its own Result; duplicates must share one", i)
		}
	}
	for _, i := range []int{1, 3} {
		if want := queries[i].Validate(g); errs[i] == nil || errs[i].Error() != want.Error() || results[i] != nil {
			t.Fatalf("slot %d = %v, %v; want nil, %v", i, results[i], errs[i], want)
		}
	}
	snap := e.Metrics().Snapshot()
	for series, want := range map[string]float64{
		`pathenum_requests_total{op="batch"}`:   1,
		`pathenum_requests_total{op="execute"}`: 0,
		`pathenum_batch_queries_total`:          float64(len(queries)),
	} {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
}

// TestExecuteBatchCancelledMidway: cancelling during a batch fails the
// queries not yet started with ctx.Err() while the running one stops
// early, and ExecuteBatch returns promptly with the pool idle.
func TestExecuteBatchCancelledMidway(t *testing.T) {
	checkCancelledMidway(t, runExecuteBatch)
}

// TestStreamBatchCancelledMidway: the same mid-batch cancel through
// StreamBatch, with the cancel fired by a worker rather than the consumer.
func TestStreamBatchCancelledMidway(t *testing.T) {
	checkCancelledMidway(t, runStreamBatch)
}

// checkCancelledMidway cancels a one-worker batch from its first emitted
// path, so the cancel lands while later queries are still queued, and
// checks that run returns within a deadline with some query failed by
// the cancel and the pool idle.
func checkCancelledMidway(t *testing.T, run batchRun) {
	t.Helper()
	g := gen.BarabasiAlbert(300, 5, 12)
	var queries []Query
	for i := 1; i < 48; i++ {
		queries = append(queries, Query{S: 0, T: VertexID(i), K: 8})
	}
	e, err := NewEngine(g, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := Options{Emit: func([]VertexID) bool {
		once.Do(cancel)
		return true
	}}
	done := make(chan []error)
	go func() {
		_, errs, _ := run(e, ctx, queries, opts)
		done <- errs
	}()
	var errs []error
	select {
	case errs = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("batch did not return after cancellation")
	}
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no query observed the cancellation")
	}
	if ps := e.PoolStats(); ps.InFlightQueries != 0 {
		t.Fatalf("pool after the batch = %+v, want idle", ps)
	}
}

// TestExecuteBatchBuildsNoRefusedFrontier: a batch member's side goes
// through the same admission check as a single query's, asked before the
// build, so a shared-target batch from low-degree sources — every forward
// side below CacheAdmitDegree — builds none of them (each would have been a
// whole k-ball labeling thrown away) and runs them as the members' own
// labelings instead: one single-flight build of the hub side, one session
// pass per member, no refused deposit, results equal to per-query runs.
func TestExecuteBatchBuildsNoRefusedFrontier(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 11)
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hub := VertexID(0) // the biggest in-degree hub
	for v := VertexID(1); int(v) < g.NumVertices(); v++ {
		if g.InDegree(v) > g.InDegree(hub) {
			hub = v
		}
	}
	if g.InDegree(hub) < DefaultCacheAdmitDegree {
		t.Fatalf("hub in-degree %d below the admission threshold; premise broken", g.InDegree(hub))
	}
	var queries []Query
	for v := VertexID(0); int(v) < g.NumVertices() && len(queries) < 24; v++ {
		if v != hub && g.OutDegree(v) > 0 && g.OutDegree(v) < DefaultCacheAdmitDegree {
			queries = append(queries, Query{S: v, T: hub, K: 4})
		}
	}
	if len(queries) < 24 {
		t.Fatalf("fixture: %d low-degree sources, want 24", len(queries))
	}
	ctx := context.Background()
	results, errs, stats := e.ExecuteBatch(ctx, queries, Options{})
	if cs := e.CacheStats(); cs.Entries != 1 || cs.Rejected != 0 {
		t.Fatalf("cache after the batch = %+v, want only the hub's backward frontier and no refusal", cs)
	}
	for i, q := range queries {
		want, err := e.ExecuteWith(ctx, q, Options{})
		if errs[i] != nil || err != nil {
			t.Fatalf("%v: batch err %v, single-query err %v", q, errs[i], err)
		}
		if results[i].Counters.Results != want.Counters.Results {
			t.Fatalf("%v: batch count %d != single query %d", q, results[i].Counters.Results, want.Counters.Results)
		}
	}
	if stats.BFSPassesRun != 1+len(queries) {
		t.Fatalf("BFSPassesRun = %d, want %d (one hub build + one session pass per member)", stats.BFSPassesRun, 1+len(queries))
	}
}

// TestBatchInvalidQueriesFillOwnSlots: a validation error fills the
// failing query's own slot — on StreamBatch before anything runs — and
// leaves the valid slots untouched.
func TestBatchInvalidQueriesFillOwnSlots(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{S: 0, T: 9, K: 4},
		{S: 5, T: 5, K: 4},    // s == t
		{S: 0, T: 9, K: 0},    // k < 1
		{S: 0, T: 9999, K: 4}, // out of range
	}
	results, errs, stats := e.ExecuteBatch(context.Background(), queries, Options{})
	if errs[0] != nil || results[0] == nil {
		t.Fatalf("valid slot: %v, %v", results[0], errs[0])
	}
	for i := 1; i < len(queries); i++ {
		if want := queries[i].Validate(g); errs[i] == nil || errs[i].Error() != want.Error() || results[i] != nil {
			t.Fatalf("slot %d = %v, %v; want nil, %v", i, results[i], errs[i], want)
		}
	}
	if stats.Invalid != 3 || stats.Unique != 1 || stats.BFSPassesNaive != 2 {
		t.Fatalf("stats = %+v, want Invalid=3 Unique=1 BFSPassesNaive=2", stats)
	}

	var order []int
	for item := range e.StreamBatch(context.Background(), queries, Options{}) {
		if item.Index >= 0 {
			order = append(order, item.Index)
		}
	}
	if want := []int{1, 2, 3, 0}; !slices.Equal(order, want) {
		t.Fatalf("StreamBatch delivery order %v, want the invalid slots first: %v", order, want)
	}
}

// TestBatchPredicate: a batch under an edge predicate agrees with
// per-query predicate runs. An opaque predicate (no token) shares nothing
// — two passes per unique query, no cache lookups — and a tokenized one
// shares the hub frontier through the cache.
func TestBatchPredicate(t *testing.T) {
	g := gen.BarabasiAlbert(60, 3, 11)
	pred := func(from, to VertexID) bool { return (int(from)+int(to))%4 != 0 }
	queries := []Query{
		{S: 0, T: 10, K: 5}, {S: 0, T: 11, K: 5}, {S: 0, T: 12, K: 4},
		{S: 5, T: 20, K: 5}, {S: 6, T: 20, K: 5},
	}
	for _, tc := range []struct {
		name string
		tok  PredicateToken
	}{{"opaque", 0}, {"tokenized", 7}} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(g, EngineConfig{Workers: 2, CacheAdmitDegree: 1})
			if err != nil {
				t.Fatal(err)
			}
			results, errs, stats := e.ExecuteBatch(context.Background(), queries, Options{Predicate: pred, PredicateToken: tc.tok})
			for i, q := range queries {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				want, err := Enumerate(g, q, Options{Predicate: pred})
				if err != nil {
					t.Fatal(err)
				}
				if results[i].Counters.Results != want.Counters.Results {
					t.Fatalf("%v: predicate batch count %d != per-query %d", q, results[i].Counters.Results, want.Counters.Results)
				}
			}
			if tc.tok == 0 {
				if stats.BFSPassesRun != 2*stats.Unique || stats.FrontierCacheHits+stats.FrontierCacheMisses != 0 {
					t.Fatalf("opaque predicate shared: %+v", stats)
				}
			} else if stats.BFSPassesRun >= 2*stats.Unique || stats.FrontierCacheHits == 0 {
				t.Fatalf("tokenized predicate did not share: %+v", stats)
			}
		})
	}
}

// TestBatchTwoSidedGridBrute: a hub-to-hub grid — every query shares both
// endpoints with others — emits exactly baseline.BrutePaths' path sets,
// cold and warm. Cold, the single-flight fill builds one frontier per
// distinct endpoint and no side runs twice; the warm repeat runs none.
func TestBatchTwoSidedGridBrute(t *testing.T) {
	g := gen.BarabasiAlbert(50, 3, 7)
	var queries []Query
	var want []string
	for s := VertexID(40); s < 48; s++ {
		for tgt := VertexID(0); tgt < 8; tgt++ {
			if g.OutDegree(s) == 0 || g.InDegree(tgt) == 0 {
				t.Fatalf("grid endpoint without edges (%d, %d); premise broken", s, tgt)
			}
			queries = append(queries, Query{S: s, T: tgt, K: 4})
			for _, p := range baseline.BrutePaths(g, s, tgt, 4) {
				want = append(want, pathKey(p))
			}
		}
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("grid workload has no paths; test is vacuous")
	}
	e, err := NewEngine(g, EngineConfig{Workers: 3, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		name string
		runs int
	}{{"cold", 16}, {"warm", 0}} {
		var mu sync.Mutex
		var got []string
		_, errs, stats := e.ExecuteBatch(context.Background(), queries, Options{Emit: func(p []VertexID) bool {
			mu.Lock()
			got = append(got, pathKey(p))
			mu.Unlock()
			return true
		}})
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s %v: %v", pass.name, queries[i], err)
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d paths differ from brute force's %d", pass.name, len(got), len(want))
		}
		if stats.BFSPassesRun != pass.runs {
			t.Fatalf("%s: BFSPassesRun = %d, want %d (stats %+v)", pass.name, stats.BFSPassesRun, pass.runs, stats)
		}
	}
}

// pathKey renders a path as a sortable string.
func pathKey(p []VertexID) string {
	var b strings.Builder
	for i, v := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// TestStreamBatchCountsInPoolGauges: batch executions run through the same
// tracked spine as single queries, so while a batch member is running the
// pool gauges — and /readyz load-shedding behind them — see it.
func TestStreamBatchCountsInPoolGauges(t *testing.T) {
	e, err := NewEngine(engineGraph(), EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	opts := Options{Emit: func([]VertexID) bool {
		once.Do(func() { close(entered) })
		<-release
		return true
	}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e.StreamBatch(context.Background(), []Query{{S: 0, T: 9, K: 4}, {S: 1, T: 9, K: 4}}, opts) {
		}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch member emitted a path")
	}
	ps := e.PoolStats()
	close(release)
	<-done
	if ps.InFlightQueries == 0 {
		t.Fatalf("pool during a blocked batch = %+v, want the running member counted", ps)
	}
	if ps := e.PoolStats(); ps.InFlightQueries != 0 {
		t.Fatalf("pool after the batch = %+v, want idle", ps)
	}
}

// TestBatchPinsOneSnapshot: a batch captures one (graph, oracle) view and
// every member runs on it — inserts published while the batch runs, which
// add a direct s->t path to every query, change none of its path sets.
func TestBatchPinsOneSnapshot(t *testing.T) {
	g0 := gen.BarabasiAlbert(200, 3, 13)
	var queries []Query
	for tgt := VertexID(20); len(queries) < 12; tgt++ {
		if !g0.HasEdge(0, tgt) && !g0.HasEdge(1, tgt) {
			queries = append(queries, Query{S: 0, T: tgt, K: 4}, Query{S: 1, T: tgt, K: 4})
		}
	}
	e, err := NewEngine(g0, EngineConfig{Workers: 1, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered, inserted := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	got := make(map[[2]VertexID][][]VertexID)
	opts := Options{Emit: func(p []VertexID) bool {
		once.Do(func() {
			close(entered)
			<-inserted
		})
		mu.Lock()
		key := [2]VertexID{p[0], p[len(p)-1]}
		got[key] = append(got[key], slices.Clone(p))
		mu.Unlock()
		return true
	}}
	type outcome struct {
		errs  []error
		stats *BatchStats
	}
	done := make(chan outcome)
	go func() {
		_, errs, stats := e.ExecuteBatch(context.Background(), queries, opts)
		done <- outcome{errs, stats}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the batch emitted nothing")
	}
	for _, q := range queries {
		if added, err := e.Insert(q.S, q.T); err != nil || !added {
			t.Fatalf("insert %v: added %v, %v", q, added, err)
		}
	}
	close(inserted)
	out := <-done
	for i, err := range out.errs {
		if err != nil {
			t.Fatalf("%v: %v", queries[i], err)
		}
	}
	for _, q := range queries {
		want := baseline.BrutePaths(g0, q.S, q.T, q.K)
		if !baseline.SamePathSet(got[[2]VertexID{q.S, q.T}], want) {
			t.Fatalf("%v: %d paths, want the %d of the snapshot the batch started on", q, len(got[[2]VertexID{q.S, q.T}]), len(want))
		}
	}
}
