package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

func collectJoin(t *testing.T, ix *Index, cut int) [][]graph.VertexID {
	t.Helper()
	var out [][]graph.VertexID
	done, err := EnumerateJoin(ix, cut, RunControl{Emit: func(p []graph.VertexID) bool {
		out = append(out, append([]graph.VertexID(nil), p...))
		return true
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("EnumerateJoin stopped unexpectedly")
	}
	return out
}

// TestJoinPaperExampleAllCuts: Algorithm 6 must produce the same 5 paths as
// the oracle for every interior cut position.
func TestJoinPaperExampleAllCuts(t *testing.T) {
	g := paperGraph(t)
	ix := mustIndex(t, g, paperQuery())
	want := brutePathsLocal(g, vS, vT, 4)
	for cut := 1; cut <= 3; cut++ {
		got := collectJoin(t, ix, cut)
		if !samePaths(got, want) {
			t.Fatalf("cut %d: join %d paths, oracle %d", cut, len(got), len(want))
		}
	}
}

// TestJoinMatchesBruteForce mirrors the DFS property test for the join
// algorithm across random graphs and cut positions (Proposition C.2).
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(4)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		want := brutePathsLocal(g, s, tt, k)
		cut := 1 + rng.Intn(k-1)
		got := collectJoin(t, ix, cut)
		if !samePaths(got, want) {
			t.Fatalf("trial %d (n=%d s=%d t=%d k=%d cut=%d): join %d paths, oracle %d",
				trial, n, s, tt, k, cut, len(got), len(want))
		}
	}
}

func TestJoinInvalidCut(t *testing.T) {
	g := paperGraph(t)
	ix := mustIndex(t, g, paperQuery())
	for _, cut := range []int{0, 4, -1, 99} {
		if _, err := EnumerateJoin(ix, cut, RunControl{}, nil, nil); err == nil {
			t.Errorf("cut %d: expected error", cut)
		}
	}
}

func TestJoinEmptyIndex(t *testing.T) {
	g, err := graph.NewGraph(3, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ix := mustIndex(t, g, Query{S: 0, T: 2, K: 4})
	var ctr Counters
	done, err := EnumerateJoin(ix, 2, RunControl{}, &ctr, nil)
	if err != nil || !done {
		t.Fatalf("empty index join: done=%v err=%v", done, err)
	}
	if ctr.Results != 0 {
		t.Fatalf("Results = %d, want 0", ctr.Results)
	}
}

// TestJoinStatsProposition61: every materialized half-tuple appears in a
// padded walk, so |Ra| and |Rb| are bounded by delta_W (Proposition 6.1 and
// the §6.4 space analysis).
func TestJoinStatsProposition61(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(8)
		g := gen.ErdosRenyi(n, n*3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(3)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		walks := uint64(bruteWalksLocal(g, s, tt, k))
		var stats JoinStats
		cut := 1 + rng.Intn(k-1)
		if _, err := EnumerateJoin(ix, cut, RunControl{}, nil, &stats); err != nil {
			t.Fatal(err)
		}
		if uint64(stats.LeftTuples) > walks {
			t.Fatalf("trial %d: |Ra|=%d > delta_W=%d", trial, stats.LeftTuples, walks)
		}
		// Rb is grouped per distinct cut vertex, each group bounded by the
		// walks through that vertex; the total is bounded by delta_W too.
		if uint64(stats.RightTuples) > walks {
			t.Fatalf("trial %d: |Rb|=%d > delta_W=%d", trial, stats.RightTuples, walks)
		}
		if stats.PartialBytes < 0 {
			t.Fatalf("negative PartialBytes")
		}
	}
}

func TestJoinLimitAndCancel(t *testing.T) {
	g := gen.Layered(4, 3) // 64 paths, k = 4
	ix := mustIndex(t, g, Query{S: 0, T: 1, K: 4})
	var ctr Counters
	done, err := EnumerateJoin(ix, 2, RunControl{Limit: 7}, &ctr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done || ctr.Results != 7 {
		t.Fatalf("limit run: done=%v results=%d", done, ctr.Results)
	}
	count := 0
	done, err = EnumerateJoin(ix, 2, RunControl{Emit: func([]graph.VertexID) bool {
		count++
		return false
	}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done || count != 1 {
		t.Fatalf("cancel run: done=%v count=%d", done, count)
	}
}

func TestJoinShouldStop(t *testing.T) {
	g := gen.Layered(8, 4)
	ix := mustIndex(t, g, Query{S: 0, T: 1, K: 5})
	done, err := EnumerateJoin(ix, 2, RunControl{ShouldStop: func() bool { return true }}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("ShouldStop join must stop early")
	}
}

// TestJoinDFSAgree: both index algorithms agree on larger pseudo-random
// inputs where brute force is still feasible.
func TestJoinDFSAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 15; trial++ {
		g := gen.BarabasiAlbert(80, 4, rng.Int63())
		s := graph.VertexID(rng.Intn(80))
		tt := graph.VertexID(rng.Intn(80))
		if s == tt {
			continue
		}
		k := 3 + rng.Intn(3)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		var dfsCtr Counters
		EnumerateDFS(ix, RunControl{}, &dfsCtr)
		for cut := 1; cut < k; cut++ {
			var joinCtr Counters
			if _, err := EnumerateJoin(ix, cut, RunControl{}, &joinCtr, nil); err != nil {
				t.Fatal(err)
			}
			if joinCtr.Results != dfsCtr.Results {
				t.Fatalf("trial %d cut %d: join %d results, DFS %d",
					trial, cut, joinCtr.Results, dfsCtr.Results)
			}
		}
	}
}

// TestJoinBuildSidesAgree: both explicit build sides produce the oracle
// path set and identical counts for every interior cut, and the stats
// describe the side actually hashed.
func TestJoinBuildSidesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(4)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		want := brutePathsLocal(g, s, tt, k)
		for cut := 1; cut < k; cut++ {
			for _, side := range []BuildSide{BuildLeft, BuildRight} {
				var ctr Counters
				var stats JoinStats
				var got [][]graph.VertexID
				done, err := EnumerateJoinSide(ix, cut, side, RunControl{Emit: func(p []graph.VertexID) bool {
					got = append(got, append([]graph.VertexID(nil), p...))
					return true
				}}, &ctr, &stats)
				if err != nil || !done {
					t.Fatalf("trial %d cut %d side %v: done=%v err=%v", trial, cut, side, done, err)
				}
				if !samePaths(got, want) {
					t.Fatalf("trial %d cut %d side %v: %d paths, oracle %d", trial, cut, side, len(got), len(want))
				}
				if ctr.Results != uint64(len(want)) {
					t.Fatalf("trial %d cut %d side %v: Results=%d, want %d", trial, cut, side, ctr.Results, len(want))
				}
				if !ix.Empty() {
					if stats.BuildLeft != (side == BuildLeft) {
						t.Fatalf("trial %d cut %d side %v: stats.BuildLeft=%v", trial, cut, side, stats.BuildLeft)
					}
					// On a completed run the probe count is the probe side's
					// tuple count and the build count the hashed side's.
					build, probe := stats.LeftTuples, stats.RightTuples
					if !stats.BuildLeft {
						build, probe = stats.RightTuples, stats.LeftTuples
					}
					if stats.BuildTuples != build || stats.ProbeWalks != probe {
						t.Fatalf("trial %d cut %d side %v: stats inconsistent: %+v", trial, cut, side, stats)
					}
				}
			}
		}
	}
}

// TestJoinFirstEmitBeforeProbeExhaustion is the tuple-at-a-time contract
// at the core level: stopping at the first emitted path leaves the probe
// side essentially unexpanded — one in-flight walk, not a materialized
// half side — for either build side.
func TestJoinFirstEmitBeforeProbeExhaustion(t *testing.T) {
	g := gen.Layered(6, 4) // 1296 paths, k = 5
	ix := mustIndex(t, g, Query{S: 0, T: 1, K: 5})
	for _, side := range []BuildSide{BuildLeft, BuildRight} {
		var stats JoinStats
		count := 0
		done, err := EnumerateJoinSide(ix, 2, side, RunControl{Emit: func([]graph.VertexID) bool {
			count++
			return false
		}}, nil, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if done || count != 1 {
			t.Fatalf("side %v: done=%v count=%d", side, done, count)
		}
		if stats.ProbeWalks != 1 {
			t.Fatalf("side %v: ProbeWalks=%d after one emitted path, want 1 (lazy probe)", side, stats.ProbeWalks)
		}
		if stats.BuildTuples == 0 {
			t.Fatalf("side %v: build side empty on a path-producing query", side)
		}
	}
}

// TestJoinPath: the fused validator takes the two halves of a joined walk as
// index positions (the right half without its copy of the cut vertex),
// accepts exactly the walks that are simple up to their first t, and writes
// the accepted one out as vertex ids, truncated at t.
func TestJoinPath(t *testing.T) {
	// Position p holds vertex 10*p; t sits at position 1.
	ix := &Index{k: 4, verts: []graph.VertexID{0, 10, 20, 30, 40, 50}, tPos: 1}
	je := newJoinEnumerator(ix, 2, true, &RunControl{}, &Counters{})
	cases := []struct {
		left, right []int32
		want        []graph.VertexID // nil = rejected
	}{
		{[]int32{0, 2, 1}, []int32{1, 1}, []graph.VertexID{0, 20, 10}},
		{[]int32{0, 2, 2}, []int32{1, 1}, nil},                     // duplicate inside the left half
		{[]int32{0, 2, 3}, []int32{2, 1}, nil},                     // duplicate across the halves
		{[]int32{0, 1}, []int32{1, 1, 1}, []graph.VertexID{0, 10}}, // direct edge, cut 1
		{[]int32{0, 2, 3, 4}, []int32{1}, []graph.VertexID{0, 20, 30, 40, 10}},
		{[]int32{0, 2, 3}, []int32{4, 5}, nil}, // never reaches t
	}
	for i, c := range cases {
		je.vepoch++
		path, ok := je.joinPath(c.left, c.right)
		if ok != (c.want != nil) || !slices.Equal(path, c.want) {
			t.Errorf("case %d: joinPath(%v, %v) = %v, %v; want %v", i, c.left, c.right, path, ok, c.want)
		}
	}
}

// TestJoinEpochWrap: the validation epoch is an int32 advanced once per
// joined candidate, so a long run overflows it — harmlessly into the
// negatives, but 2^32 candidates in it reaches seen's zero value and then
// the stamps of its first lap. A run started just short of either edge, over
// a seen array that holds such old stamps, must still produce DFS's path set.
func TestJoinEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(8)
		g := gen.ErdosRenyi(n, n*4, rng.Int63())
		q := Query{S: 0, T: graph.VertexID(n - 1), K: 3 + rng.Intn(3)}
		ix := mustIndex(t, g, q)
		var want [][]graph.VertexID
		EnumerateDFS(ix, RunControl{Emit: func(p []graph.VertexID) bool {
			want = append(want, slices.Clone(p))
			return true
		}}, nil)
		if ix.Empty() {
			continue
		}
		for _, start := range []int32{math.MaxInt32 - 5, -5} {
			for _, buildLeft := range []bool{true, false} {
				var got [][]graph.VertexID
				ctl := RunControl{Emit: func(p []graph.VertexID) bool {
					got = append(got, slices.Clone(p))
					return true
				}}
				je := newJoinEnumerator(ix, 1+rng.Intn(q.K-1), buildLeft, &ctl, &Counters{})
				je.vepoch = start
				for p := range je.seen {
					je.seen[p] = int32(p%7) + 1 // what the first lap left behind
				}
				if !je.build() {
					t.Fatal("build stopped")
				}
				je.probe()
				if !samePaths(got, want) {
					t.Fatalf("trial %d, epoch from %d, buildLeft=%v: join %d paths, DFS %d",
						trial, start, buildLeft, len(got), len(want))
				}
			}
		}
	}
}

// TestJoinBuildReserve pins what sizing the build side from the estimate
// relies on: Algorithm 5's count at the cut is the number of left walks the
// build materializes exactly, and an upper bound on the right ones; and a
// pre-sized run reports the counters and footprint of a grown one.
func TestJoinBuildReserve(t *testing.T) {
	rng := rand.New(rand.NewSource(2424))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(30)
		g := gen.ErdosRenyi(n, n*3, rng.Int63())
		q := Query{S: 0, T: graph.VertexID(n - 1), K: 3 + rng.Intn(4)}
		ix := mustIndex(t, g, q)
		if ix.Empty() {
			continue
		}
		est := FullEstimate(ix)
		for cut := 1; cut < q.K; cut++ {
			for _, side := range []BuildSide{BuildLeft, BuildRight} {
				walks, buildLen := est.buildSide(cut, side)
				var grown, sized JoinStats
				var gc, sc Counters
				if _, err := enumerateJoin(ix, cut, side, 0, RunControl{}, &gc, &grown); err != nil {
					t.Fatal(err)
				}
				if _, err := enumerateJoin(ix, cut, side, walks, RunControl{}, &sc, &sized); err != nil {
					t.Fatal(err)
				}
				built := uint64(grown.BuildTuples)
				if side == BuildLeft && walks != built || walks < built {
					t.Fatalf("trial %d cut %d %v: estimate %d walks of %d vertices, build materialized %d",
						trial, cut, side, walks, buildLen, built)
				}
				grown.BuildTime, grown.ProbeTime, sized.BuildTime, sized.ProbeTime = 0, 0, 0, 0
				if sized != grown || sc != gc {
					t.Fatalf("trial %d cut %d %v: pre-sized run %+v %+v, grown run %+v %+v", trial, cut, side, sized, sc, grown, gc)
				}
			}
		}
	}
}
