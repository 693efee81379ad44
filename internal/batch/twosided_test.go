package batch

import (
	"context"
	"sync"
	"testing"

	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// gridBatch builds the hub-to-hub workload the two-sided pass exists
// for: every query pairs one of nSrc sources with one of nTgt targets,
// so the batch touches only nSrc+nTgt distinct BFS sides.
func gridBatch(nSrc, nTgt, k int) []core.Query {
	var queries []core.Query
	for s := 0; s < nSrc; s++ {
		for t := 0; t < nTgt; t++ {
			queries = append(queries, core.Query{
				S: graph.VertexID(s),
				T: graph.VertexID(nSrc + t),
				K: k,
			})
		}
	}
	return queries
}

// TestPlanTwoSidedGrid: an 8x8 hub grid plans to one BFS side per
// distinct endpoint — 16 shared specs, zero solo sides — instead of the
// 8 + 64 sides one-sided grouping would build.
func TestPlanTwoSidedGrid(t *testing.T) {
	g := testGraph(t)
	queries := gridBatch(8, 8, 4)
	plan := NewPlanner(g).Plan(queries)
	st := plan.Stats()

	// Ties prefer the source side, so the greedy cover commits the eight
	// source buckets.
	if st.SharedSourceGroups != 8 || st.SharedTargetGroups != 0 || st.Singletons != 0 {
		t.Fatalf("group mix = %+v, want 8 shared-source groups", st)
	}
	if len(plan.Shared) != 16 {
		t.Fatalf("Shared = %d specs, want 16 (8 sources + 8 targets)", len(plan.Shared))
	}
	for _, spec := range plan.Shared {
		if spec.Uses != 8 || spec.MaxK != 4 {
			t.Fatalf("spec %+v: want Uses=8 MaxK=4", spec)
		}
	}
	if st.BFSPasses != 16 || st.BFSPassesNaive != 128 || st.BFSPassesSaved != 112 {
		t.Fatalf("BFS passes = naive %d actual %d saved %d, want 128/16/112",
			st.BFSPassesNaive, st.BFSPasses, st.BFSPassesSaved)
	}
	if st.SharedFrontiers != 16 {
		t.Fatalf("SharedFrontiers = %d, want 16", st.SharedFrontiers)
	}
	// The 8 backward target sides are shared across group boundaries —
	// exactly the frontiers one-sided grouping could never share.
	if st.TwoSidedFrontiers != 8 {
		t.Fatalf("TwoSidedFrontiers = %d, want 8", st.TwoSidedFrontiers)
	}
	coverage(t, plan)
}

// TestPlanTwoSidedMaxK: a shared spec is built to the largest bound any
// of its users needs, even across group boundaries.
func TestPlanTwoSidedMaxK(t *testing.T) {
	g := testGraph(t)
	queries := []core.Query{
		// Source group at 1 (k<=4), but target 20 is also needed at k=6
		// by a member of source group 2.
		{S: 1, T: 20, K: 4}, {S: 1, T: 21, K: 3},
		{S: 2, T: 20, K: 6}, {S: 2, T: 22, K: 5},
	}
	plan := NewPlanner(g).Plan(queries)
	var tgt20 *FrontierSpec
	for i := range plan.Shared {
		if spec := &plan.Shared[i]; spec.Origin == 20 && !spec.Forward {
			tgt20 = spec
		}
	}
	if tgt20 == nil {
		t.Fatalf("target side 20 not shared: %+v", plan.Shared)
	}
	if tgt20.Uses != 2 || tgt20.MaxK != 6 {
		t.Fatalf("target-20 spec %+v, want Uses=2 MaxK=6", *tgt20)
	}
}

// mapProvider is a trivial always-admit FrontierProvider for tests.
type mapProvider struct {
	mu sync.Mutex
	m  map[frontierKey]*core.Frontier
}

func newMapProvider() *mapProvider {
	return &mapProvider{m: make(map[frontierKey]*core.Frontier)}
}

func (p *mapProvider) Lookup(origin graph.VertexID, forward bool, k int) *core.Frontier {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.m[frontierKey{origin, forward}]
	if f == nil || f.Bound() < k {
		return nil
	}
	return f
}

func (p *mapProvider) Admits(graph.VertexID, bool) bool { return true }

func (p *mapProvider) Store(f *core.Frontier, uses int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m[frontierKey{f.Origin(), f.IsForward()}] = f
	return true
}

// TestExecuteTwoSidedDifferential: a cold hub-to-hub batch runs exactly
// one BFS pass per distinct endpoint, a warm repeat runs zero, and both
// agree with the sequential core pipeline on every count.
func TestExecuteTwoSidedDifferential(t *testing.T) {
	g := testGraph(t)
	queries := gridBatch(8, 8, 4)
	plan := NewPlanner(g).Plan(queries)
	ctx := context.Background()

	want := make([]uint64, len(queries))
	for i, q := range queries {
		n, err := core.Count(g, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}
	check := func(name string, uniqRes []*core.Result, uniqErrs []error) {
		t.Helper()
		results, errs := plan.Scatter(uniqRes, uniqErrs)
		for i := range queries {
			if errs[i] != nil {
				t.Fatalf("%s query %d: %v", name, i, errs[i])
			}
			if got := results[i].Counters.Results; got != want[i] {
				t.Fatalf("%s query %d: count %d != sequential %d", name, i, got, want[i])
			}
		}
	}

	// Cold, no provider: the acceptance bound — one BFS per endpoint.
	sch := newTestScheduler(g, 3)
	res, errs, stats := sch.Execute(ctx, g, plan, core.Options{})
	check("cold", res, errs)
	if stats.BFSPassesRun != len(plan.Shared) {
		t.Fatalf("cold two-sided BFSPassesRun = %d, want %d (one per distinct endpoint)",
			stats.BFSPassesRun, len(plan.Shared))
	}

	// Cold with an empty provider, then warm: the repeat runs BFS-free.
	sch.Frontiers = newMapProvider()
	res, errs, stats = sch.Execute(ctx, g, plan, core.Options{})
	check("cold+provider", res, errs)
	if stats.BFSPassesRun != len(plan.Shared) {
		t.Fatalf("cold provider run BFSPassesRun = %d, want %d", stats.BFSPassesRun, len(plan.Shared))
	}
	res, errs, stats = sch.Execute(ctx, g, plan, core.Options{})
	check("warm", res, errs)
	if stats.BFSPassesRun != 0 {
		t.Fatalf("warm two-sided BFSPassesRun = %d, want 0", stats.BFSPassesRun)
	}
	if stats.FrontierCacheHits == 0 {
		t.Fatal("warm run recorded no cache hits")
	}
}

// TestExecuteTwoSidedGroupShapes: the differential holds across every
// group shape at once — two-sided grid queries, a plain shared-source
// cluster, a shared-target cluster, duplicates and loners — cold and
// warm.
func TestExecuteTwoSidedGroupShapes(t *testing.T) {
	g := testGraph(t)
	queries := gridBatch(4, 4, 3)
	queries = append(queries,
		// Shared-source cluster off-grid.
		core.Query{S: 30, T: 40, K: 4}, core.Query{S: 30, T: 41, K: 5},
		// Shared-target cluster.
		core.Query{S: 31, T: 45, K: 4}, core.Query{S: 32, T: 45, K: 4},
		// Loner + exact duplicate of a grid query.
		core.Query{S: 33, T: 46, K: 3},
		queries[0],
	)
	plan := NewPlanner(g).Plan(queries)
	st := plan.Stats()
	if st.Deduped != 1 || st.Singletons == 0 || st.SharedSourceGroups == 0 || st.SharedTargetGroups == 0 {
		t.Fatalf("batch lacks a group shape: %+v", st)
	}

	sch := newTestScheduler(g, 2)
	sch.Frontiers = newMapProvider()
	for pass, wantWarm := range []bool{false, true} {
		res, errsU, stats := sch.Execute(context.Background(), g, plan, core.Options{})
		results, errs := plan.Scatter(res, errsU)
		for i, q := range queries {
			if errs[i] != nil {
				t.Fatalf("pass %d query %d: %v", pass, i, errs[i])
			}
			want, err := core.Count(g, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := results[i].Counters.Results; got != want {
				t.Fatalf("pass %d %v: count %d != sequential %d", pass, q, got, want)
			}
		}
		if wantWarm && stats.BFSPassesRun != 0 {
			t.Fatalf("warm mixed batch BFSPassesRun = %d, want 0", stats.BFSPassesRun)
		}
	}
}

// TestExecuteRerankTwoSided: with a fixed Estimate hook and one worker,
// the order OnResult settles members in is fully determined — probes in
// plan (static cost) order, then remaining members cheapest-estimate
// first across groups — and identical run to run.
func TestExecuteRerankTwoSided(t *testing.T) {
	g := testGraph(t)
	// Three shared-source groups of 4; plan order is by static cost.
	var queries []core.Query
	for _, s := range []graph.VertexID{1, 2, 3} {
		for i := 0; i < 4; i++ {
			queries = append(queries, core.Query{S: s, T: graph.VertexID(10 + 3*int(s) + i), K: 4})
		}
	}
	plan := NewPlanner(g).Plan(queries)
	if len(plan.Groups) != 3 {
		t.Fatalf("want 3 groups, got %d", len(plan.Groups))
	}
	// Fixed estimates invert the static order: the group planned last
	// becomes the cheapest.
	est := map[graph.VertexID]float64{}
	for gi, grp := range plan.Groups {
		est[grp.Hub] = float64(len(plan.Groups) - gi)
	}

	capture := func() []int {
		var mu sync.Mutex
		var order []int
		sch := newTestScheduler(g, 1)
		sch.Estimate = func(q core.Query, probe *core.Result) float64 { return est[q.S] }
		sch.OnResult = func(u int, res *core.Result, err error) {
			if err != nil {
				t.Errorf("unique %d: %v", u, err)
			}
			mu.Lock()
			order = append(order, u)
			mu.Unlock()
		}
		sch.Execute(context.Background(), g, plan, core.Options{})
		return order
	}

	order := capture()
	if len(order) != len(plan.Unique) {
		t.Fatalf("settled %d uniques, want %d", len(order), len(plan.Unique))
	}
	// First three settles are the probes, in plan order.
	for gi := 0; gi < 3; gi++ {
		if order[gi] != plan.Groups[gi].Members[0] {
			t.Fatalf("settle %d = unique %d, want group %d probe %d",
				gi, order[gi], gi, plan.Groups[gi].Members[0])
		}
	}
	// Remaining members arrive in ascending fed-back estimate: group 2
	// (est 1), then group 1 (est 2), then group 0 (est 3), members in
	// index order within each.
	var want []int
	for gi := 2; gi >= 0; gi-- {
		want = append(want, plan.Groups[gi].Members[1:]...)
	}
	got := order[3:]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("re-ranked settle order %v, want %v", got, want)
		}
	}
	// Determinism: a second capture reproduces the order exactly.
	again := capture()
	for i := range order {
		if order[i] != again[i] {
			t.Fatalf("settle order not deterministic: run1 %v run2 %v", order, again)
		}
	}
	// The fed-back estimate is surfaced per group.
	_, _, stats := func() ([]*core.Result, []error, *Stats) {
		sch := newTestScheduler(g, 1)
		sch.Estimate = func(q core.Query, probe *core.Result) float64 { return est[q.S] }
		return sch.Execute(context.Background(), g, plan, core.Options{})
	}()
	for gi, gt := range stats.GroupTimings {
		if gt.Estimate != est[plan.Groups[gi].Hub] {
			t.Fatalf("group %d Estimate = %v, want %v", gi, gt.Estimate, est[plan.Groups[gi].Hub])
		}
	}
}
