package shard

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"pathenum"
	"pathenum/internal/baseline"
	"pathenum/internal/core"
	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// seamPaths runs the seam phase of cross query q alone on a pooled
// crossJoin, stopping after limit paths when limit > 0, and returns the
// paths it emitted and whether it was stopped.
func seamPaths(e *Engine, q pathenum.Query, pred core.EdgePredicate, limit int) ([][]graph.VertexID, bool) {
	v := e.capture()
	cj, sq := e.seam(v, route{kind: routeCross, a: e.Owner(q.S), b: e.Owner(q.T)})
	var out [][]graph.VertexID
	sq.s, sq.t, sq.k, sq.pred = q.S, q.T, q.K, pred
	sq.emit = func(p []graph.VertexID) bool {
		out = append(out, append([]graph.VertexID(nil), p...))
		return limit == 0 || len(out) < limit
	}
	cj.run(sq)
	stopped := cj.stopped
	e.seams.Put(cj)
	return out, stopped
}

// singleCrossing is the brute-force seam answer: the simple s-t paths of
// at most k edges whose every edge pred admits and whose owner shape is
// A⁺B⁺ — one ownership change, from s's shard to t's.
func singleCrossing(e *Engine, g *graph.Graph, q pathenum.Query, pred core.EdgePredicate) [][]graph.VertexID {
	a, b := e.owners[q.S], e.owners[q.T]
	var out [][]graph.VertexID
next:
	for _, p := range baseline.BrutePaths(g, q.S, q.T, q.K) {
		i := 0
		for i < len(p) && e.owners[p[i]] == a {
			i++
		}
		for _, x := range p[i:] {
			if e.owners[x] != b {
				continue next
			}
		}
		for j := 1; j < len(p); j++ {
			if pred != nil && !pred(p[j-1], p[j]) {
				continue next
			}
		}
		out = append(out, p)
	}
	return out
}

// The seam phase alone enumerates exactly the single-crossing class, on
// every shard count, hop bound and predicate setting, and keeps doing so
// on one engine whose pooled scratch has served limit-stopped runs.
func TestCrossJoinMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pred := func(from, to pathenum.VertexID) bool { return (uint32(from)*5+uint32(to))%6 != 0 }
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(40)
		g := gen.BarabasiAlbert(n, 2+rng.Intn(3), rng.Int63())
		for _, p := range []int{2, 3} {
			e := newShardEngine(t, g, p)
			checked := 0
			for tries := 0; tries < 400 && checked < 10; tries++ {
				q := pathenum.Query{S: pathenum.VertexID(rng.Intn(n)), T: pathenum.VertexID(rng.Intn(n)), K: 2 + rng.Intn(5)}
				if e.Owner(q.S) == e.Owner(q.T) {
					continue
				}
				for _, pr := range []core.EdgePredicate{nil, pred} {
					label := fmt.Sprintf("trial %d P=%d q=%v pred=%v", trial, p, q, pr != nil)
					want := singleCrossing(e, g, q, pr)
					if len(want) > 1 {
						limit := 1 + rng.Intn(len(want)-1)
						got, stopped := seamPaths(e, q, pr, limit)
						if len(got) != limit || !stopped {
							t.Fatalf("%s: limit %d run emitted %d, stopped=%v", label, limit, len(got), stopped)
						}
					}
					got, stopped := seamPaths(e, q, pr, 0)
					if stopped || !baseline.SamePathSet(got, want) {
						t.Fatalf("%s: seam emitted %d paths (stopped=%v), brute single-crossing %d", label, len(got), stopped, len(want))
					}
				}
				checked++
			}
		}
	}
}

// allocBytes reports the fewest bytes run allocated over repeated runs —
// the steady state, past any pool refill. The runs are many because the
// race detector makes sync.Pool drop a quarter of what is put back.
func allocBytes(run func()) uint64 {
	best := ^uint64(0)
	for range 20 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// A cross query's per-query state follows the query: once the pools are
// warm, it allocates the same bytes on g as on g padded with ten times as
// many isolated vertices — nothing per query is sized by |V|.
func TestCrossJoinAllocsIndependentOfGraphSize(t *testing.T) {
	g := testGraph(89)
	n := g.NumVertices()
	padded, err := graph.NewGraph(11*n, g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	small, big := newShardEngine(t, g, 2), newShardEngine(t, padded, 2)
	_, q := pickQueries(t, small, g, 4, 97)
	if r, _ := small.classify(small.capture(), q, false); r.kind != routeCross || !r.fallbackNeeded {
		t.Fatalf("fixture: route %+v, want a cross route with a remainder phase", r)
	}
	drain := func(e *Engine) func() {
		return func() {
			for _, err := range e.Stream(context.Background(), pathenum.Request{S: q.S, T: q.T, K: q.K}) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, b := allocBytes(drain(small)), allocBytes(drain(big))
	if a != b || a == 0 {
		t.Errorf("cross query allocates %d bytes on %d vertices, %d bytes on %d", a, n, b, 11*n)
	}
}

// Cross-shard streams abandoned early, from several goroutines, while
// inserts publish: every path delivered is a real s-t path of the final
// graph, and afterwards each query's full answer still equals the single
// image's — no pooled scratch came back dirty.
func TestShardConcurrentCrossStreams(t *testing.T) {
	g := testGraph(101)
	e := newShardEngine(t, g, 2)
	n := g.NumVertices()
	var qs []pathenum.Query
	rng := rand.New(rand.NewSource(103))
	for len(qs) < 8 {
		q := pathenum.Query{S: pathenum.VertexID(rng.Intn(n)), T: pathenum.VertexID(rng.Intn(n)), K: 4}
		if e.Owner(q.S) != e.Owner(q.T) {
			qs = append(qs, q)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := qs[(w+i)%len(qs)]
				stopAt := (w*7 + i) % 9 // 0: drain
				got := 0
				for p, err := range e.Stream(ctx, pathenum.Request{S: q.S, T: q.T, K: q.K}) {
					if err != nil {
						errs <- err
						return
					}
					if len(p) < 2 || p[0] != q.S || p[len(p)-1] != q.T || len(p)-1 > q.K {
						errs <- fmt.Errorf("q=%v: bad path %v", q, p)
						return
					}
					if got++; got == stopAt {
						break
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		irng := rand.New(rand.NewSource(107))
		for added := 0; added < 20; {
			u, v := pathenum.VertexID(irng.Intn(n)), pathenum.VertexID(irng.Intn(n))
			if u == v {
				continue
			}
			ok, err := e.Insert(u, v)
			if err != nil {
				errs <- err
				return
			}
			if ok {
				added++
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := e.Graph()
	for _, q := range qs {
		req := pathenum.Request{S: q.S, T: q.T, K: q.K}
		diffSets(t, fmt.Sprintf("after q=%v", q), singleSet(t, final, req), collect(t, e.Stream(ctx, req)))
	}
}

// The seam labeling is the cross route's BFS: with the remainder phase
// provably skipped (every cut edge runs A→B), Timings.BFS and BFSVisited
// come from the seam join alone and must not read zero.
func TestCrossSeamLabelingObserved(t *testing.T) {
	base := testGraph(109)
	own := HashOwner(2)
	var edges []graph.Edge
	for _, ed := range base.Edges() {
		if !(own(ed.From) == 1 && own(ed.To) == 0) {
			edges = append(edges, ed)
		}
	}
	g, err := graph.NewGraph(base.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	e := newShardEngine(t, g, 2)
	var q pathenum.Query
	var want uint64
	for s := 0; s < g.NumVertices() && want == 0; s++ {
		for tt := 0; tt < g.NumVertices() && want == 0; tt++ {
			if own(graph.VertexID(s)) != 0 || own(graph.VertexID(tt)) != 1 {
				continue
			}
			q = pathenum.Query{S: graph.VertexID(s), T: graph.VertexID(tt), K: 4}
			if want, err = pathenum.Count(g, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	if r, _ := e.classify(e.capture(), q, false); want == 0 || r.kind != routeCross || r.fallbackNeeded {
		t.Fatalf("fixture: q=%v has %d paths on route %+v, want a cross route with no remainder", q, want, r)
	}
	res, err := e.ExecuteWith(context.Background(), q, pathenum.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want || !res.Completed {
		t.Fatalf("q=%v: %d paths (completed=%v), want %d", q, res.Counters.Results, res.Completed, want)
	}
	if res.Timings.BFS <= 0 || res.Timings.BFS > res.Timings.Build || res.BFSVisited <= 0 {
		t.Fatalf("seam labeling unobserved: Timings %+v, BFSVisited %d", res.Timings, res.BFSVisited)
	}
}
