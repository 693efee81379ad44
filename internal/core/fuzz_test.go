package core

import (
	"context"
	"sort"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// sortedKeys renders paths as sorted strings for order-insensitive set
// comparison.
func sortedKeys(paths [][]graph.VertexID) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = pathKey(p)
	}
	sort.Strings(out)
	return out
}

func sameKeySets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzEnumerationAgreement drives native fuzzing over the full pipeline:
// a fuzz-chosen random graph and query must give identical results through
// IDX-DFS, IDX-JOIN and the optimizer, all matching the brute-force oracle,
// and the full estimator must count walks exactly. The join is exercised
// differentially: for every cut position and both build sides, the push
// mode (EnumerateJoinSide's Emit) and the pull mode (the same enumerator
// behind a stream) must deliver the same path *set* — order-insensitive —
// and the same Counters.Results as the DFS, and the planned and
// join-planned Session.Stream must match too. Run with
// `go test -fuzz=FuzzEnumerationAgreement ./internal/core` for open-ended
// fuzzing; the seed corpus runs in normal test mode.
func FuzzEnumerationAgreement(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(30), uint8(0), uint8(5), uint8(3))
	f.Add(int64(2), uint8(6), uint8(18), uint8(1), uint8(2), uint8(4))
	f.Add(int64(3), uint8(15), uint8(60), uint8(3), uint8(9), uint8(5))
	f.Add(int64(4), uint8(4), uint8(4), uint8(0), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, sRaw, tRaw, kRaw uint8) {
		n := 2 + int(nRaw)%14 // 2..15 vertices
		m := int(mRaw) % 64
		g := gen.ErdosRenyi(n, m, seed)
		s := graph.VertexID(int(sRaw) % n)
		tt := graph.VertexID(int(tRaw) % n)
		if s == tt {
			return
		}
		k := 1 + int(kRaw)%5
		q := Query{S: s, T: tt, K: k}

		want := brutePathsLocal(g, s, tt, k)
		wantKeys := sortedKeys(want)
		ix, err := BuildIndex(g, q)
		if err != nil {
			t.Fatal(err)
		}
		var dfs Counters
		var dfsPaths [][]graph.VertexID
		EnumerateDFS(ix, RunControl{Emit: func(p []graph.VertexID) bool {
			dfsPaths = append(dfsPaths, append([]graph.VertexID(nil), p...))
			return true
		}}, &dfs)
		if dfs.Results != uint64(len(want)) {
			t.Fatalf("DFS %d results, oracle %d (q=%v)", dfs.Results, len(want), q)
		}
		dfsKeys := sortedKeys(dfsPaths)
		if !sameKeySets(dfsKeys, wantKeys) {
			t.Fatalf("DFS path set diverges from oracle (q=%v)", q)
		}
		if k >= 2 {
			for cut := 1; cut < k; cut++ {
				// Push mode, both build sides.
				for _, side := range []BuildSide{BuildLeft, BuildRight} {
					var join Counters
					var joinPaths [][]graph.VertexID
					if _, err := EnumerateJoinSide(ix, cut, side, RunControl{Emit: func(p []graph.VertexID) bool {
						joinPaths = append(joinPaths, append([]graph.VertexID(nil), p...))
						return true
					}}, &join, nil); err != nil {
						t.Fatal(err)
					}
					if join.Results != dfs.Results {
						t.Fatalf("join(cut=%d,side=%v) %d results, DFS %d (q=%v)", cut, side, join.Results, dfs.Results, q)
					}
					if !sameKeySets(sortedKeys(joinPaths), dfsKeys) {
						t.Fatalf("join(cut=%d,side=%v) path set diverges from DFS (q=%v)", cut, side, q)
					}
				}
				// Pull mode: the same tuple-at-a-time enumerator behind a
				// stream, with the estimator-resolved build side.
				var pullCtr Counters
				var pullKeys []string
				seq := makeStream(context.Background(), StreamConfig{}, func(_ context.Context, emit func([]graph.VertexID) bool) (*Result, error) {
					done, err := EnumerateJoin(ix, cut, RunControl{Emit: emit}, &pullCtr, nil)
					if err != nil {
						return nil, err
					}
					return &Result{Completed: done}, nil
				})
				for p, serr := range seq {
					if serr != nil {
						t.Fatal(serr)
					}
					pullKeys = append(pullKeys, pathKey(p))
				}
				sort.Strings(pullKeys)
				if pullCtr.Results != dfs.Results {
					t.Fatalf("streamed join(cut=%d) %d results, DFS %d (q=%v)", cut, pullCtr.Results, dfs.Results, q)
				}
				if !sameKeySets(pullKeys, dfsKeys) {
					t.Fatalf("streamed join(cut=%d) path set diverges from DFS (q=%v)", cut, q)
				}
			}
			// The planned and the join-planned session streams (the public
			// wiring) agree too.
			sess := NewSession(g, nil)
			for _, method := range []Method{MethodAuto, MethodJoin} {
				var planned *Result
				var sessKeys []string
				for p, serr := range sess.StreamWith(context.Background(), q, Options{Method: method}, StreamConfig{
					OnResult: func(r *Result) { planned = r },
				}) {
					if serr != nil {
						t.Fatal(serr)
					}
					sessKeys = append(sessKeys, pathKey(p))
				}
				sort.Strings(sessKeys)
				if !sameKeySets(sessKeys, dfsKeys) {
					t.Fatalf("%v-planned stream path set diverges from DFS (q=%v)", method, q)
				}
				if planned == nil || planned.Counters.Results != dfs.Results {
					t.Fatalf("%v-planned stream result %+v, want %d results (q=%v)", method, planned, dfs.Results, q)
				}
			}
		}
		res, err := Run(g, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.Results != dfs.Results {
			t.Fatalf("planner %d results, DFS %d (q=%v)", res.Counters.Results, dfs.Results, q)
		}
		est := FullEstimate(ix)
		if walks := bruteWalksLocal(g, s, tt, k); est.Walks != uint64(walks) {
			t.Fatalf("estimator %d walks, oracle %d (q=%v)", est.Walks, walks, q)
		}
	})
}

// FuzzLabelingAgreement drives the BFS level kernel, top-down and
// bottom-up, over fuzz-chosen graphs: a random graph of up to 41 vertices
// and anywhere from no edges to about half of all pairs, optionally with a
// star hub (vertex 0 to and from every other vertex); endpoints; k in
// 1..6; the frontier's direction; and no predicate, dropThirds or
// skewThirds.
// The frontier grown from s (forward) or t (backward) to depth k must
// equal the reference BFS vertex for vertex, and the per-query labeling
// must assemble, field for field, the two-pass reference index. Run with
// `go test -fuzz=FuzzLabelingAgreement ./internal/core`; the seed corpus
// runs in normal test mode.
func FuzzLabelingAgreement(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(30), uint8(0), uint8(5), uint8(3), uint8(0))
	f.Add(int64(2), uint8(30), uint16(450), uint8(1), uint8(7), uint8(4), uint8(3))
	f.Add(int64(3), uint8(25), uint16(20), uint8(3), uint8(9), uint8(5), uint8(4))
	f.Add(int64(4), uint8(39), uint16(800), uint8(2), uint8(0), uint8(1), uint8(6))
	f.Add(int64(5), uint8(20), uint16(150), uint8(4), uint8(11), uint8(3), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, mRaw uint16, sRaw, tRaw, kRaw, flags uint8) {
		n := 2 + int(nRaw)%40
		edges := gen.ErdosRenyi(n, int(mRaw)%(n*n/2+1), seed).Edges()
		if flags&4 != 0 {
			for v := 1; v < n; v++ {
				edges = append(edges, graph.Edge{From: 0, To: graph.VertexID(v)}, graph.Edge{From: graph.VertexID(v), To: 0})
			}
		}
		g, err := graph.NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		s, tt := graph.VertexID(int(sRaw)%n), graph.VertexID(int(tRaw)%n)
		if s == tt {
			return
		}
		q := Query{S: s, T: tt, K: 1 + int(kRaw)%6}
		var pred EdgePredicate
		switch flags & 10 {
		case 2:
			pred = dropThirds
		case 10:
			pred = skewThirds
		}
		forward, origin := flags&1 == 0, s
		if !forward {
			origin = tt
		}
		checkFrontierDist(t, g, origin, q.K, forward, pred)
		want := referenceIndex(g, q, pred, nil)
		got := buildIndex(g, q, newBFSScratch(n).label(g, q, pred, nil, nil, nil), pred, newPosMap(n))
		if d := diffIndex(want, got); d != "" {
			t.Fatalf("%v on %v (predicate %v): index field %s differs from the two-pass build", q, g, pred != nil, d)
		}
	})
}
