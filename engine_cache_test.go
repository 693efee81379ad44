package pathenum

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"pathenum/internal/gen"
)

// repeatHubBatch is the workload the frontier cache exists for: every
// batch queries the same high-degree hub, half as the source and half as
// the target (vertex 0 of the Barabási–Albert generator attracts edges,
// so the target side is where most paths live).
func repeatHubBatch(g *Graph, hub VertexID, count, k int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	queries := make([]Query, 0, count)
	for len(queries) < count {
		v := VertexID(rng.Intn(n))
		// Skip partners isolated in the direction their side's BFS needs:
		// a zero-degree endpoint is refused by any deposit admission
		// threshold, which would break the warm-zero-pass pins.
		if v == hub || g.OutDegree(v) == 0 || g.InDegree(v) == 0 {
			continue
		}
		if len(queries)%2 == 0 {
			queries = append(queries, Query{S: hub, T: v, K: k})
		} else {
			queries = append(queries, Query{S: v, T: hub, K: k})
		}
	}
	return queries
}

// TestExecuteBatchWarmCacheZeroBFS is the acceptance criterion: the second
// execution of a repeat-hub batch must be served entirely from the
// frontier cache — zero BFS passes run, visible through the stats
// counters — while reporting the same per-query counts.
func TestExecuteBatchWarmCacheZeroBFS(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 9)
	// CacheAdmitDegree 1 admits the low-degree partner endpoints too —
	// this test pins full warm service, not admission policy (covered by
	// TestBatchDepositAdmission).
	e, err := NewEngine(g, EngineConfig{Workers: 4, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(g, 0, 24, 4, 5)

	cold, coldErrs, coldStats := e.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if coldErrs[i] != nil {
			t.Fatal(coldErrs[i])
		}
	}
	if coldStats.BFSPassesRun == 0 {
		t.Fatal("cold batch cannot run zero BFS passes")
	}

	warm, warmErrs, warmStats := e.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if warmErrs[i] != nil {
			t.Fatal(warmErrs[i])
		}
		if warm[i].Counters.Results != cold[i].Counters.Results {
			t.Fatalf("%v: warm count %d != cold %d", queries[i], warm[i].Counters.Results, cold[i].Counters.Results)
		}
	}
	if warmStats.BFSPassesRun != 0 {
		t.Fatalf("warm repeat batch ran %d BFS passes, want 0 (stats: %+v)", warmStats.BFSPassesRun, warmStats)
	}
	if warmStats.FrontierCacheHits == 0 || warmStats.FrontierCacheMisses != 0 {
		t.Fatalf("warm cache counters: hits=%d misses=%d", warmStats.FrontierCacheHits, warmStats.FrontierCacheMisses)
	}
	if cs := e.CacheStats(); cs.Hits == 0 || cs.Entries == 0 {
		t.Fatalf("engine cache stats: %+v", cs)
	}
}

// collectBatchPaths materializes the full sorted path set of a batch via
// the concurrent Emit hook.
func collectBatchPaths(t *testing.T, e *Engine, queries []Query) []string {
	t.Helper()
	var mu sync.Mutex
	var paths []string
	opts := Options{Emit: func(p []VertexID) bool {
		var b strings.Builder
		for i, v := range p {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(itoaInt(int(v)))
		}
		mu.Lock()
		paths = append(paths, b.String())
		mu.Unlock()
		return true
	}}
	_, errs, _ := e.ExecuteBatch(context.Background(), queries, opts)
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	sort.Strings(paths)
	return paths
}

func itoaInt(v int) string {
	if v == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestBatchCacheHitPathSetEquality: the paths emitted by a cache-hit
// execution must be exactly those of a cold build and of a cache-disabled
// engine (the satellite correctness check: relaxation soundness end to
// end).
func TestBatchCacheHitPathSetEquality(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 17)
	queries := repeatHubBatch(g, 0, 12, 4, 3)

	noCache, err := NewEngine(g, EngineConfig{Workers: 3, FrontierCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewEngine(g, EngineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	want := collectBatchPaths(t, noCache, queries)
	cold := collectBatchPaths(t, cached, queries)
	warm := collectBatchPaths(t, cached, queries)
	if st := cached.CacheStats(); st.Hits == 0 {
		t.Fatalf("warm pass did not hit the cache: %+v", st)
	}
	if len(want) == 0 {
		t.Fatal("workload produced no paths; test is vacuous")
	}
	for name, got := range map[string][]string{"cold": cold, "warm": warm} {
		if len(got) != len(want) {
			t.Fatalf("%s path count %d != uncached %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s path[%d] = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
}

// TestBatchTwoSidedPathSetEquality: a hub-to-hub grid batch — every query
// sharing both its source and its target with other queries — must emit
// exactly the paths of a cache-disabled engine, cold and warm, and the
// warm repeat must run zero BFS passes.
func TestBatchTwoSidedPathSetEquality(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 61)
	var queries []Query
	for s := VertexID(0); s < 4; s++ {
		for tgt := VertexID(4); tgt < 8; tgt++ {
			queries = append(queries, Query{S: s, T: tgt, K: 4})
		}
	}

	noCache, err := NewEngine(g, EngineConfig{Workers: 3, FrontierCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewEngine(g, EngineConfig{Workers: 3, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}

	want := collectBatchPaths(t, noCache, queries)
	cold := collectBatchPaths(t, cached, queries)
	warm := collectBatchPaths(t, cached, queries)
	if len(want) == 0 {
		t.Fatal("grid workload produced no paths; test is vacuous")
	}
	for name, got := range map[string][]string{"cold": cold, "warm": warm} {
		if len(got) != len(want) {
			t.Fatalf("%s path count %d != uncached %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s path[%d] = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
	// The warm stats repeat pin: every side of the grid was deposited.
	_, errs, stats := cached.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if stats.BFSPassesRun != 0 {
		t.Fatalf("warm two-sided batch ran %d passes, want 0", stats.BFSPassesRun)
	}
	if stats.SharedFrontiers != 8 || stats.TwoSidedFrontiers != 4 {
		t.Fatalf("grid sharing stats = %d shared / %d two-sided, want 8/4", stats.SharedFrontiers, stats.TwoSidedFrontiers)
	}
}

// TestBatchDepositAdmission: under the default admission threshold a
// fringe-to-hub batch deposits only the planner-proved shared hub side;
// the fringe member sides are refused, so the warm repeat still rebuilds
// them while the hub side hits.
func TestBatchDepositAdmission(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 9)
	hub := VertexID(2) // the biggest attachment hub of this seed
	if g.InDegree(hub) < DefaultCacheAdmitDegree {
		t.Fatalf("hub in-degree %d below the default admission threshold; premise broken", g.InDegree(hub))
	}
	// Fringe partners: able to source a path but below the admission
	// threshold on both sides, so their forward frontiers are refused.
	var queries []Query
	for v := VertexID(1); v < VertexID(g.NumVertices()) && len(queries) < 8; v++ {
		if g.OutDegree(v) >= 1 && g.OutDegree(v) < DefaultCacheAdmitDegree &&
			g.InDegree(v) < DefaultCacheAdmitDegree {
			queries = append(queries, Query{S: v, T: hub, K: 4})
		}
	}
	if len(queries) < 4 {
		t.Fatalf("only %d fringe partners found", len(queries))
	}

	// Default admission (CacheAdmitDegree 0 -> DefaultCacheAdmitDegree).
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, errs, cold := e.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if cold.BFSPassesRun == 0 {
		t.Fatal("cold batch cannot run zero passes")
	}
	// Only the shared hub side (uses >= 2, admitted regardless of degree)
	// may land in the cache.
	if cs := e.CacheStats(); cs.Entries != 1 {
		t.Fatalf("admission deposited %d entries, want 1 (the hub side)", cs.Entries)
	}

	_, errs, warm := e.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	if warm.FrontierCacheHits == 0 {
		t.Fatal("warm repeat did not hit the deposited hub side")
	}
	// The refused fringe sides run again: one backward pass per unique.
	if warm.BFSPassesRun != warm.Unique {
		t.Fatalf("warm repeat ran %d passes, want %d (one refused fringe side per unique)", warm.BFSPassesRun, warm.Unique)
	}
	if cs := e.CacheStats(); cs.Entries != 1 {
		t.Fatalf("warm repeat changed the entry count to %d", cs.Entries)
	}
}

// TestSingleQueryServedFromWarmCache: a single ExecuteWith on a hub warmed
// by a batch must hit the cache (and agree with a plain Enumerate).
func TestSingleQueryServedFromWarmCache(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 21)
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(g, 0, 8, 4, 11)
	if _, errs, _ := e.ExecuteBatch(context.Background(), queries, Options{}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	before := e.CacheStats().Hits

	q := queries[0]
	res, err := e.ExecuteWith(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Enumerate(g, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want.Counters.Results {
		t.Fatalf("cached single query count %d != Enumerate %d", res.Counters.Results, want.Counters.Results)
	}
	if e.CacheStats().Hits <= before {
		t.Fatal("single query did not consult the warm cache")
	}
}

// TestUpdateGraphInvalidatesLazily: after an epoch bump the warm cache
// must not serve stale frontiers — the next batch reruns its BFS, counts
// reflect the inserted edge, and the invalidation counter moves. The
// rebuilt entries then serve the new epoch with zero passes again.
func TestUpdateGraphInvalidatesLazily(t *testing.T) {
	d := NewDynamic(gen.BarabasiAlbert(300, 3, 29))
	snap0 := d.Snapshot()
	// CacheAdmitDegree 1: the warm-zero precondition needs the low-degree
	// partner endpoints cached too.
	e, err := NewEngine(snap0, EngineConfig{Workers: 4, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries := repeatHubBatch(snap0, 0, 16, 4, 13)
	if _, errs, _ := e.ExecuteBatch(context.Background(), queries, Options{}); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if _, _, warm := e.ExecuteBatch(context.Background(), queries, Options{}); warm.BFSPassesRun != 0 {
		t.Fatalf("precondition: warm batch ran %d passes", warm.BFSPassesRun)
	}

	// Insert an edge into the hub's 2-hop neighborhood and advance.
	inserted := false
	for to := VertexID(1); to < 40 && !inserted; to++ {
		ok, ierr := d.Insert(0, to)
		if ierr != nil {
			t.Fatal(ierr)
		}
		inserted = ok
	}
	if !inserted {
		t.Fatal("could not insert a fresh hub edge")
	}
	if err := e.UpdateGraph(d.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 1 {
		t.Fatalf("engine epoch = %d, want 1", e.Epoch())
	}

	results, errs, stats := e.ExecuteBatch(context.Background(), queries, Options{})
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("post-update query %d: %v", i, errs[i])
		}
		want, werr := Enumerate(e.Graph(), queries[i], Options{})
		if werr != nil {
			t.Fatal(werr)
		}
		if results[i].Counters.Results != want.Counters.Results {
			t.Fatalf("%v: post-update count %d != fresh Enumerate %d",
				queries[i], results[i].Counters.Results, want.Counters.Results)
		}
	}
	if stats.BFSPassesRun == 0 {
		t.Fatal("post-update batch cannot be served from the stale cache")
	}
	if cs := e.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("no lazy invalidations recorded: %+v", cs)
	}
	if _, _, rewarm := e.ExecuteBatch(context.Background(), queries, Options{}); rewarm.BFSPassesRun != 0 {
		t.Fatalf("re-warmed batch ran %d passes, want 0", rewarm.BFSPassesRun)
	}
}

// TestUpdateGraphDropsStaleOracle: advancing the engine past the oracle's
// epoch must drop the oracle (queries keep working, unpruned) — and
// SetOracle must refuse a stale oracle outright while accepting a rebuilt
// one.
func TestUpdateGraphDropsStaleOracle(t *testing.T) {
	d := NewDynamic(gen.BarabasiAlbert(200, 3, 33))
	snap0 := d.Snapshot()
	oracle, err := BuildOracle(snap0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(snap0, EngineConfig{Workers: 2, Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 9, K: 4}
	if _, err := e.Execute(q); err != nil {
		t.Fatal(err)
	}

	if ok, ierr := d.Insert(0, 150); ierr != nil || !ok {
		t.Fatalf("Insert = %v, %v", ok, ierr)
	}
	snap1 := d.Snapshot()

	// A stale oracle passed explicitly must surface the typed error.
	if _, err := Enumerate(snap1, q, Options{Oracle: oracle}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale oracle on new snapshot: got %v, want ErrStaleEpoch", err)
	}
	// NewEngine must refuse the mismatch too.
	if _, err := NewEngine(snap1, EngineConfig{Oracle: oracle}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("NewEngine with stale oracle: got %v, want ErrStaleEpoch", err)
	}

	if err := e.UpdateGraph(snap1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("query after oracle drop: %v", err)
	}
	want, err := Enumerate(snap1, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want.Counters.Results {
		t.Fatalf("post-drop count %d != %d", res.Counters.Results, want.Counters.Results)
	}

	if err := e.SetOracle(oracle); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("SetOracle with stale oracle: got %v, want ErrStaleEpoch", err)
	}
	rebuilt, err := BuildOracle(snap1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetOracle(rebuilt); err != nil {
		t.Fatal(err)
	}
	res2, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Counters.Results != want.Counters.Results {
		t.Fatalf("rebuilt-oracle count %d != %d", res2.Counters.Results, want.Counters.Results)
	}
}

// TestUpdateGraphDropsStaleDefaultOracle: an oracle installed as the
// per-query default (EngineConfig.Options.Oracle) is version-enforced
// like the engine-level one — NewEngine refuses a mismatch and
// UpdateGraph drops it instead of letting every merged query fail with
// ErrStaleEpoch.
func TestUpdateGraphDropsStaleDefaultOracle(t *testing.T) {
	d := NewDynamic(gen.BarabasiAlbert(200, 3, 37))
	snap0 := d.Snapshot()
	oracle, err := BuildOracle(snap0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(snap0, EngineConfig{Workers: 2, Options: Options{Oracle: oracle}})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 9, K: 4}
	if _, err := e.Execute(q); err != nil {
		t.Fatal(err)
	}

	if ok, ierr := d.Insert(0, 150); ierr != nil || !ok {
		t.Fatalf("Insert = %v, %v", ok, ierr)
	}
	snap1 := d.Snapshot()
	if _, err := NewEngine(snap1, EngineConfig{Options: Options{Oracle: oracle}}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("NewEngine with stale default oracle: got %v, want ErrStaleEpoch", err)
	}
	if err := e.UpdateGraph(snap1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("query after default-oracle drop: %v", err)
	}
	want, err := Enumerate(snap1, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want.Counters.Results {
		t.Fatalf("post-drop count %d != %d", res.Counters.Results, want.Counters.Results)
	}
}

// TestConcurrentCacheReadersVsInsert runs concurrent batch/single readers
// against a writer performing Dynamic.Insert + UpdateGraph — the
// satellite -race coverage. Readers must never observe an error: each
// captures a consistent (graph, sessions, cache-version) view, and stale
// cache entries are invalidated rather than served.
func TestConcurrentCacheReadersVsInsert(t *testing.T) {
	d := NewDynamic(gen.BarabasiAlbert(150, 3, 41))
	e, err := NewEngine(d.Snapshot(), EngineConfig{Workers: 4, FrontierCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: the single owner of the Dynamic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 0; i < 40; i++ {
			from := VertexID(rng.Intn(150))
			to := VertexID(rng.Intn(150))
			if _, err := d.Insert(from, to); err != nil {
				t.Error(err)
				break
			}
			if err := e.UpdateGraph(d.Snapshot()); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
	}()

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				queries := repeatHubBatch(e.Graph(), VertexID(rng.Intn(8)), 6, 3, rng.Int63())
				if w == 0 {
					q := queries[0]
					if _, err := e.ExecuteWith(context.Background(), q, Options{}); err != nil {
						t.Errorf("single query: %v", err)
						return
					}
					continue
				}
				_, errs, _ := e.ExecuteBatch(context.Background(), queries, Options{})
				for i, qerr := range errs {
					if qerr != nil {
						t.Errorf("batch query %v: %v", queries[i], qerr)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExecuteBatchOpaquePredicate: a predicate without a token is opaque —
// no sharing, no caching — but must still produce correct results; the
// same predicate with a token shares and caches.
func TestExecuteBatchOpaquePredicate(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 55)
	pred := func(from, to VertexID) bool { return (int(from)+int(to))%3 != 0 }
	queries := repeatHubBatch(g, 0, 10, 4, 19)

	// CacheAdmitDegree 1: the warm-zero check needs the low-degree partner
	// endpoints cached too.
	e, err := NewEngine(g, EngineConfig{Workers: 3, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(opts Options) *BatchStats {
		t.Helper()
		results, errs, stats := e.ExecuteBatch(context.Background(), queries, opts)
		for i, q := range queries {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			want, werr := Enumerate(g, q, Options{Predicate: pred})
			if werr != nil {
				t.Fatal(werr)
			}
			if results[i].Counters.Results != want.Counters.Results {
				t.Fatalf("%v: count %d != %d", q, results[i].Counters.Results, want.Counters.Results)
			}
		}
		return stats
	}

	opaque := check(Options{Predicate: pred})
	if opaque.FrontierCacheHits != 0 || opaque.FrontierCacheMisses != 0 {
		t.Fatalf("opaque predicate consulted the cache: %+v", opaque)
	}
	if opaque.BFSPassesRun != 2*opaque.Unique {
		t.Fatalf("opaque predicate shared frontiers: ran %d passes for %d unique", opaque.BFSPassesRun, opaque.Unique)
	}

	tokenized := check(Options{Predicate: pred, PredicateToken: 42})
	if tokenized.BFSPassesRun >= 2*tokenized.Unique {
		t.Fatalf("tokenized predicate did not share: ran %d passes for %d unique", tokenized.BFSPassesRun, tokenized.Unique)
	}
	warm := check(Options{Predicate: pred, PredicateToken: 42})
	if warm.BFSPassesRun != 0 {
		t.Fatalf("warm tokenized batch ran %d passes, want 0", warm.BFSPassesRun)
	}
}

// TestSingleQueryDepositsWithAdmission is the cache-symmetry fix: single
// queries now deposit the frontiers they build, but only when the
// endpoint passes the degree-based admission check — hub endpoints warm
// the cache for later queries and batches, cold endpoints stay on the
// allocation-free scratch path.
func TestSingleQueryDepositsWithAdmission(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 91)
	hub := VertexID(0) // preferential attachment: highest degree
	// A fringe vertex: out- and in-degree both below any hub threshold.
	fringe := VertexID(-1)
	for v := VertexID(1); v < VertexID(g.NumVertices()); v++ {
		if v != hub && g.OutDegree(v) <= 3 && g.InDegree(v) <= 3 && g.OutDegree(v) > 0 {
			fringe = v
			break
		}
	}
	if fringe < 0 {
		t.Fatal("no fringe vertex found")
	}
	if g.OutDegree(hub) < 8 {
		t.Fatalf("hub degree %d too low for the test premise", g.OutDegree(hub))
	}

	e, err := NewEngine(g, EngineConfig{Workers: 2, CacheAdmitDegree: 8})
	if err != nil {
		t.Fatal(err)
	}
	hubQ := Query{S: hub, T: fringe, K: 4}
	want, err := Enumerate(g, hubQ, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Cold hub query: misses, then deposits the forward (hub) side.
	res, err := e.ExecuteWith(context.Background(), hubQ, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want.Counters.Results {
		t.Fatalf("deposited run count %d != Enumerate %d", res.Counters.Results, want.Counters.Results)
	}
	cs := e.CacheStats()
	if cs.Entries == 0 {
		t.Fatalf("single hub query did not deposit: %+v", cs)
	}
	if cs.Hits != 0 {
		t.Fatalf("cold query reported hits: %+v", cs)
	}

	// Repeat: the hub side is served from the cache.
	if _, err := e.ExecuteWith(context.Background(), hubQ, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats(); after.Hits == 0 {
		t.Fatalf("repeat hub query missed the deposited frontier: %+v", after)
	}

	// Streams share the same consult/deposit spine.
	before := e.CacheStats().Hits
	for _, serr := range e.Stream(context.Background(), NewRequest(hubQ)) {
		if serr != nil {
			t.Fatal(serr)
		}
	}
	if after := e.CacheStats(); after.Hits <= before {
		t.Fatalf("stream did not consult the cache: %+v", after)
	}

	// A fringe-to-fringe query is refused admission: no new entries.
	var fringe2 VertexID = -1
	for v := fringe + 1; v < VertexID(g.NumVertices()); v++ {
		if v != hub && g.OutDegree(v) <= 3 && g.InDegree(v) <= 3 {
			fringe2 = v
			break
		}
	}
	if fringe2 < 0 {
		t.Fatal("no second fringe vertex found")
	}
	entriesBefore := e.CacheStats().Entries
	if _, err := e.ExecuteWith(context.Background(), Query{S: fringe, T: fringe2, K: 3}, Options{}); err != nil {
		t.Fatal(err)
	}
	if entriesAfter := e.CacheStats().Entries; entriesAfter != entriesBefore {
		t.Fatalf("fringe query deposited despite admission: %d -> %d entries", entriesBefore, entriesAfter)
	}

	// CacheAdmitDegree < 0 disables single-query deposits entirely.
	off, err := NewEngine(g, EngineConfig{CacheAdmitDegree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := off.ExecuteWith(context.Background(), hubQ, Options{}); err != nil {
		t.Fatal(err)
	}
	if cs := off.CacheStats(); cs.Entries != 0 {
		t.Fatalf("deposit-disabled engine cached %d entries", cs.Entries)
	}
}

// TestCacheNoBuildWhenDepositCannotFit: when the budget leaves no room
// for even one frontier, an admitted miss must not pay a full-ball build
// per query only for Put to refuse it — Rejected stays 0, nothing
// is resident, and answers equal the unbudgeted engine's.
func TestCacheNoBuildWhenDepositCannotFit(t *testing.T) {
	g := engineGraph()
	free, err := NewEngine(g, EngineConfig{Workers: 2, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One byte: floored at the mandatory scratch, which then fills it.
	tight, err := NewEngine(g, EngineConfig{Workers: 2, CacheAdmitDegree: 1, MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ms := tight.MemStats(); ms.BudgetBytes-ms.UsedBytes >= int64(4*g.NumVertices()) {
		t.Fatalf("test premise: headroom %d holds a frontier", ms.BudgetBytes-ms.UsedBytes)
	}
	ctx := context.Background()
	for _, q := range append(engineQueries(12, 5, g.NumVertices()), Query{S: 101, T: 0, K: 4}) {
		want, err := free.ExecuteWith(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := tight.ExecuteWith(ctx, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters.Results != want.Counters.Results {
			t.Fatalf("%v: budgeted %d paths, unbudgeted %d", q, got.Counters.Results, want.Counters.Results)
		}
	}
	if cs := free.CacheStats(); cs.Entries == 0 {
		t.Fatalf("test premise: the unbudgeted engine deposited nothing: %+v", cs)
	}
	if cs := tight.CacheStats(); cs.Rejected != 0 || cs.Entries != 0 {
		t.Fatalf("built deposits the cache had to refuse: %+v", cs)
	}
}
