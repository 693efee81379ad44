package shard

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pathenum"
	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

func testGraph(seed int64) *pathenum.Graph {
	return gen.BarabasiAlbert(220, 4, seed)
}

func pathKey(p []graph.VertexID) string { return fmt.Sprint(p) }

// collect drains a stream into a path-set keyed by vertex sequence.
func collect(t *testing.T, seq func(func(pathenum.Path, error) bool)) map[string]struct{} {
	t.Helper()
	set := make(map[string]struct{})
	for p, err := range seq {
		if err != nil {
			t.Fatal(err)
		}
		key := pathKey(p)
		if _, dup := set[key]; dup {
			t.Fatalf("duplicate path %s", key)
		}
		set[key] = struct{}{}
	}
	return set
}

func singleSet(t *testing.T, g *pathenum.Graph, req pathenum.Request) map[string]struct{} {
	t.Helper()
	return collect(t, pathenum.Stream(context.Background(), g, req))
}

func diffSets(t *testing.T, label string, want, got map[string]struct{}) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: single engine %d paths, sharded %d", label, len(want), len(got))
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: sharded missing path %s", label, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: sharded invented path %s", label, k)
		}
	}
}

// pickQueries finds one intra-shard and one cross-shard query with a
// non-trivial answer set on g.
func pickQueries(t *testing.T, e *Engine, g *pathenum.Graph, k int, seed int64) (intra, cross pathenum.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	var haveIntra, haveCross bool
	if e.Shards() == 1 {
		haveCross = true // P=1 has no cross class; callers reuse the intra query
	}
	for tries := 0; tries < 20000 && !(haveIntra && haveCross); tries++ {
		s := pathenum.VertexID(rng.Intn(n))
		tt := pathenum.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		q := pathenum.Query{S: s, T: tt, K: k}
		same := e.Owner(s) == e.Owner(tt)
		if (same && haveIntra) || (!same && haveCross) {
			continue
		}
		c, err := pathenum.Count(g, q)
		if err != nil || c == 0 {
			continue
		}
		if same {
			intra, haveIntra = q, true
		} else {
			cross, haveCross = q, true
		}
	}
	if !haveIntra || !haveCross {
		t.Fatalf("no intra/cross query pair found (intra=%v cross=%v)", haveIntra, haveCross)
	}
	if e.Shards() == 1 {
		cross = intra
	}
	return intra, cross
}

func newShardEngine(t *testing.T, g *pathenum.Graph, p int) *Engine {
	t.Helper()
	e, err := New(g, p, Config{Engine: pathenum.EngineConfig{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The core differential: the sharded engine's path set must equal the
// single-image set for intra and cross routes at every P.
func TestShardAgreementStream(t *testing.T) {
	g := testGraph(11)
	ctx := context.Background()
	for _, p := range []int{1, 2, 4} {
		e := newShardEngine(t, g, p)
		intra, cross := pickQueries(t, e, g, 4, 31)
		for _, q := range []pathenum.Query{intra, cross} {
			req := pathenum.Request{S: q.S, T: q.T, K: q.K}
			want := singleSet(t, g, req)
			got := collect(t, e.Stream(ctx, req))
			diffSets(t, fmt.Sprintf("P=%d q=%v", p, q), want, got)
		}
	}
}

func TestShardExecuteAgreement(t *testing.T) {
	g := testGraph(13)
	for _, p := range []int{2, 4} {
		e := newShardEngine(t, g, p)
		intra, cross := pickQueries(t, e, g, 4, 37)
		for _, q := range []pathenum.Query{intra, cross} {
			res, err := e.ExecuteWith(context.Background(), q, pathenum.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := pathenum.Count(g, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Results != want {
				t.Fatalf("P=%d q=%v: Execute counted %d, want %d", p, q, res.Counters.Results, want)
			}
			if !res.Completed {
				t.Fatalf("P=%d q=%v: unlimited run not Completed", p, q)
			}
		}
	}
}

// A limit that falls inside the seam join stops the stream there with an
// exact count, and the pooled scratch it hands back is clean: the same
// query, unlimited on the same engine, still yields the single-image set.
func TestShardLimit(t *testing.T) {
	g := testGraph(17)
	e := newShardEngine(t, g, 3)
	// The first cross query (seeded draw) whose seam phase alone has at
	// least 3 paths, so the limit of 2 stops the seam join itself.
	rng := rand.New(rand.NewSource(41))
	var cross pathenum.Query
	for found := false; !found; {
		cross = pathenum.Query{S: pathenum.VertexID(rng.Intn(g.NumVertices())), T: pathenum.VertexID(rng.Intn(g.NumVertices())), K: 4}
		if e.Owner(cross.S) == e.Owner(cross.T) {
			continue
		}
		c, err := pathenum.Count(g, cross)
		if err != nil {
			t.Fatal(err)
		}
		found = c >= 3 && len(singleCrossing(e, g, cross, nil)) >= 3
	}
	var res *pathenum.Result
	req := pathenum.Request{S: cross.S, T: cross.T, K: cross.K, Limit: 2,
		OnResult: func(r *pathenum.Result) { res = r }}
	n := 0
	for p, serr := range e.Stream(context.Background(), req) {
		if serr != nil {
			t.Fatal(serr)
		}
		if len(p) == 0 {
			t.Fatal("empty path")
		}
		n++
	}
	if n != 2 {
		t.Fatalf("limit 2 yielded %d paths", n)
	}
	if res == nil || res.Completed {
		t.Fatalf("limited run must report Completed=false, got %+v", res)
	}
	if res.Counters.Results != 2 {
		t.Fatalf("limited run counted %d", res.Counters.Results)
	}
	full := pathenum.Request{S: cross.S, T: cross.T, K: cross.K}
	diffSets(t, "unlimited after limit", singleSet(t, g, full), collect(t, e.Stream(context.Background(), full)))
}

func TestShardPredicateAgreement(t *testing.T) {
	g := testGraph(19)
	e := newShardEngine(t, g, 2)
	_, cross := pickQueries(t, e, g, 4, 43)
	pred := func(from, to pathenum.VertexID) bool { return (uint32(from)+uint32(to))%7 != 0 }
	req := pathenum.Request{S: cross.S, T: cross.T, K: cross.K, Predicate: pred}
	want := singleSet(t, g, req)
	got := collect(t, e.Stream(context.Background(), req))
	diffSets(t, "predicate", want, got)
}

// Insert must route to the owning structures, advance the composite
// epoch, and keep the differential after the mutation.
func TestShardInsertRouting(t *testing.T) {
	g := testGraph(23)
	e := newShardEngine(t, g, 3)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(47))

	find := func(sameShard bool) (pathenum.VertexID, pathenum.VertexID) {
		for {
			u := pathenum.VertexID(rng.Intn(n))
			v := pathenum.VertexID(rng.Intn(n))
			if u == v || e.Graph().HasEdge(u, v) {
				continue
			}
			if (e.Owner(u) == e.Owner(v)) == sameShard {
				return u, v
			}
		}
	}

	epoch0 := e.Epoch()
	u, v := find(true)
	owner := e.Owner(u)
	subEdges := e.subs[owner].Graph().NumEdges()
	if added, err := e.Insert(u, v); err != nil || !added {
		t.Fatalf("co-owned insert: added=%v err=%v", added, err)
	}
	if got := e.subs[owner].Graph().NumEdges(); got != subEdges+1 {
		t.Fatalf("co-owned insert not applied to shard %d: %d edges, want %d", owner, got, subEdges+1)
	}
	if e.Epoch() != epoch0+1 {
		t.Fatalf("composite epoch %d, want %d", e.Epoch(), epoch0+1)
	}

	cutBefore := e.CutEdges()
	cu, cv := find(false)
	if added, err := e.Insert(cu, cv); err != nil || !added {
		t.Fatalf("cut insert: added=%v err=%v", added, err)
	}
	if e.CutEdges() != cutBefore+1 {
		t.Fatalf("cut insert not recorded: %d cut edges, want %d", e.CutEdges(), cutBefore+1)
	}
	if added, err := e.Insert(cu, cv); err != nil || added {
		t.Fatalf("duplicate insert: added=%v err=%v", added, err)
	}

	// The mutated image must still agree with a single engine over it.
	intra, cross := pickQueries(t, e, e.Graph(), 4, 53)
	for _, q := range []pathenum.Query{intra, cross} {
		req := pathenum.Request{S: q.S, T: q.T, K: q.K}
		want := singleSet(t, e.Graph(), req)
		got := collect(t, e.Stream(context.Background(), req))
		diffSets(t, fmt.Sprintf("post-insert q=%v", q), want, got)
	}
}

// TestShardStreamBatchAgreement: a sharded batch over random intra- and
// cross-shard queries, with one duplicate and one s == t query, answers
// every slot with the single-image count and reports what the full-image
// batch folded: one invalid, one deduped.
func TestShardStreamBatchAgreement(t *testing.T) {
	g := testGraph(29)
	e := newShardEngine(t, g, 4)
	rng := rand.New(rand.NewSource(59))
	n := g.NumVertices()
	var qs []pathenum.Query
	for len(qs) < 24 {
		s := pathenum.VertexID(rng.Intn(n))
		tt := pathenum.VertexID(rng.Intn(n))
		if s == tt || slices.Contains(qs, pathenum.Query{S: s, T: tt, K: 4}) {
			continue
		}
		qs = append(qs, pathenum.Query{S: s, T: tt, K: 4})
	}
	qs = append(qs, qs[3])                                        // duplicate
	qs = append(qs, pathenum.Query{S: qs[0].S, T: qs[0].S, K: 4}) // invalid: s == t
	results := make([]*pathenum.Result, len(qs))
	errs := make([]error, len(qs))
	var stats *pathenum.BatchStats
	for item := range e.StreamBatch(context.Background(), qs, pathenum.Options{}) {
		if item.Index < 0 {
			stats = item.Stats
			continue
		}
		results[item.Index], errs[item.Index] = item.Result, item.Err
	}
	if stats == nil || stats.Queries != len(qs) || stats.Invalid != 1 || stats.Deduped != 1 || stats.Unique != 24 {
		t.Fatalf("stats %+v, want Queries=%d Invalid=1 Deduped=1 Unique=24", stats, len(qs))
	}
	if errs[len(qs)-1] == nil {
		t.Fatal("invalid query must error")
	}
	for i, q := range qs[:len(qs)-1] {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := pathenum.Count(g, q)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] == nil || results[i].Counters.Results != want {
			t.Fatalf("query %d (%v): got %+v, want %d paths", i, q, results[i], want)
		}
	}
}

func TestShardStreamBatch(t *testing.T) {
	g := testGraph(31)
	e := newShardEngine(t, g, 2)
	intra, cross := pickQueries(t, e, g, 4, 61)
	qs := []pathenum.Query{intra, cross, intra}
	seen := make(map[int]bool)
	var stats *pathenum.BatchStats
	for item := range e.StreamBatch(context.Background(), qs, pathenum.Options{}) {
		if item.Index == -1 {
			stats = item.Stats
			continue
		}
		if item.Err != nil {
			t.Fatalf("item %d: %v", item.Index, item.Err)
		}
		if seen[item.Index] {
			t.Fatalf("item %d delivered twice", item.Index)
		}
		seen[item.Index] = true
		want, err := pathenum.Count(g, qs[item.Index])
		if err != nil {
			t.Fatal(err)
		}
		if item.Result.Counters.Results != want {
			t.Fatalf("item %d: %d paths, want %d", item.Index, item.Result.Counters.Results, want)
		}
	}
	if len(seen) != len(qs) {
		t.Fatalf("delivered %d items, want %d", len(seen), len(qs))
	}
	if stats == nil || stats.Queries != len(qs) {
		t.Fatalf("missing/short stats item: %+v", stats)
	}
}

func TestShardMetricsExported(t *testing.T) {
	g := testGraph(37)
	reg := pathenum.NewMetricsRegistry()
	e, err := New(g, 2, Config{Engine: pathenum.EngineConfig{Workers: 2, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	intra, cross := pickQueries(t, e, g, 4, 67)
	for _, q := range []pathenum.Query{intra, cross} {
		if _, err := e.ExecuteWith(context.Background(), q, pathenum.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if snap["pathenum_shard_count"] != 2 {
		t.Fatalf("pathenum_shard_count = %v", snap["pathenum_shard_count"])
	}
	var intraTotal, crossTotal float64
	for k, v := range snap {
		switch {
		case len(k) > len("pathenum_shard_queries_total") && k[:len("pathenum_shard_queries_total")] == "pathenum_shard_queries_total":
			intraTotal += v
		case len(k) > len("pathenum_shard_cross_queries_total") && k[:len("pathenum_shard_cross_queries_total")] == "pathenum_shard_cross_queries_total":
			crossTotal += v
		}
	}
	if intraTotal < 1 || crossTotal < 1 {
		t.Fatalf("routing counters not observed: intra=%v cross=%v", intraTotal, crossTotal)
	}
	if r := snap["pathenum_shard_cross_ratio"]; r <= 0 || r >= 1 {
		t.Fatalf("pathenum_shard_cross_ratio = %v, want in (0,1)", r)
	}
	// Full-image gauges must describe the full graph, not a sub-graph.
	if snap["pathenum_graph_edges"] != float64(g.NumEdges()) {
		t.Fatalf("pathenum_graph_edges = %v, want %d", snap["pathenum_graph_edges"], g.NumEdges())
	}
}

// Abandoning a cross-shard stream mid-iteration — including one whose
// remainder phase runs buffered — must leave no goroutine behind.
func TestShardStreamAbandonNoLeak(t *testing.T) {
	g := testGraph(41)
	e := newShardEngine(t, g, 2)
	_, cross := pickQueries(t, e, g, 5, 71)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		req := pathenum.Request{S: cross.S, T: cross.T, K: cross.K, Buffer: 8}
		for p, err := range e.Stream(context.Background(), req) {
			if err != nil {
				t.Fatal(err)
			}
			_ = p
			break // abandon after the first path
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The pool series on the shared registry describe the sharded engine as a
// whole — what /readyz sheds on — not the constituent that registered
// first: the worker gauge is the sum of the per-shard pools, and a
// cross-shard stream held open mid-iteration is visible as in flight.
func TestShardPoolGaugesAggregate(t *testing.T) {
	g := testGraph(43)
	reg := pathenum.NewMetricsRegistry()
	const p, workers = 2, 3
	e, err := New(g, p, Config{Engine: pathenum.EngineConfig{Workers: workers, Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["pathenum_pool_workers"]; got != workers*p || e.PoolStats().Workers != workers*p {
		t.Fatalf("pathenum_pool_workers = %v, PoolStats().Workers = %d, want %d", got, e.PoolStats().Workers, workers*p)
	}
	_, cross := pickQueries(t, e, g, 5, 73)
	held := false
	for _, err := range e.Stream(context.Background(), pathenum.Request{S: cross.S, T: cross.T, K: cross.K}) {
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if q := snap["pathenum_pool_inflight_queries"]; q < 1 || q != float64(e.PoolStats().InFlightQueries) {
			t.Fatalf("mid-stream pathenum_pool_inflight_queries = %v, PoolStats %d, want the same and >= 1", q, e.PoolStats().InFlightQueries)
		}
		if u := snap["pathenum_pool_utilization"]; u != e.PoolStats().Utilization() {
			t.Fatalf("mid-stream pathenum_pool_utilization = %v, PoolStats %v", u, e.PoolStats().Utilization())
		}
		held = true
		break
	}
	if !held {
		t.Fatal("cross-shard query yielded no path to hold the stream on")
	}
	if q := reg.Snapshot()["pathenum_pool_inflight_queries"]; q != 0 {
		t.Fatalf("pathenum_pool_inflight_queries = %v after the stream ended, want 0", q)
	}
}
