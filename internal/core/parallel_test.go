package core

import (
	"context"
	"math/rand"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// TestParallelDFSMatchesSequential: the sharded DFS delivers the same
// path set and, on completed runs, identical Counters at every fan-out
// level — including levels far above the root count (forced fallback).
func TestParallelDFSMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 0
	for trials < 25 {
		n := 8 + rng.Intn(30)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		q := Query{S: graph.VertexID(rng.Intn(n)), T: graph.VertexID(rng.Intn(n)), K: 2 + rng.Intn(4)}
		if q.S == q.T {
			continue
		}
		trials++
		ix, err := BuildIndex(g, q)
		if err != nil {
			t.Fatal(err)
		}
		var seq Counters
		var seqPaths [][]graph.VertexID
		EnumerateDFS(ix, RunControl{Emit: func(p []graph.VertexID) bool {
			seqPaths = append(seqPaths, append([]graph.VertexID(nil), p...))
			return true
		}}, &seq)
		seqKeys := sortedKeys(seqPaths)
		for _, par := range []int{2, 3, 8, 64} {
			var ctr Counters
			var paths [][]graph.VertexID
			done := EnumerateDFSParallel(ix, par, RunControl{Emit: func(p []graph.VertexID) bool {
				paths = append(paths, p) // owned-emission contract
				return true
			}}, &ctr)
			if !done {
				t.Fatalf("parallel(%d) DFS not completed (q=%v)", par, q)
			}
			if ctr != seq {
				t.Fatalf("parallel(%d) DFS counters %+v, sequential %+v (q=%v)", par, ctr, seq, q)
			}
			if !sameKeySets(sortedKeys(paths), seqKeys) {
				t.Fatalf("parallel(%d) DFS path set diverges (q=%v)", par, q)
			}
		}
	}
}

// TestParallelJoinMatchesSequential: the sharded join agrees with the
// sequential join on paths, Results and the partition-invariant JoinStats
// (BuildTuples, ProbeWalks) for every cut, both build sides.
func TestParallelJoinMatchesSequential(t *testing.T) {
	g, q := layeredGraph(t, 4, 4)
	ix, err := BuildIndex(g, q)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < q.K; cut++ {
		for _, side := range []BuildSide{BuildLeft, BuildRight} {
			var seq Counters
			var seqStats JoinStats
			var seqPaths [][]graph.VertexID
			if _, err := EnumerateJoinSide(ix, cut, side, RunControl{Emit: func(p []graph.VertexID) bool {
				seqPaths = append(seqPaths, append([]graph.VertexID(nil), p...))
				return true
			}}, &seq, &seqStats); err != nil {
				t.Fatal(err)
			}
			seqKeys := sortedKeys(seqPaths)
			for _, par := range []int{2, 4} {
				var ctr Counters
				var stats JoinStats
				var paths [][]graph.VertexID
				done, err := EnumerateJoinSideParallel(ix, cut, side, par, RunControl{Emit: func(p []graph.VertexID) bool {
					paths = append(paths, p)
					return true
				}}, &ctr, &stats)
				if err != nil {
					t.Fatal(err)
				}
				if !done {
					t.Fatalf("parallel(%d) join(cut=%d,%v) not completed", par, cut, side)
				}
				if ctr != seq {
					t.Fatalf("parallel(%d) join(cut=%d,%v) counters %+v, sequential %+v", par, cut, side, ctr, seq)
				}
				if !sameKeySets(sortedKeys(paths), seqKeys) {
					t.Fatalf("parallel(%d) join(cut=%d,%v) path set diverges", par, cut, side)
				}
				if stats.BuildTuples != seqStats.BuildTuples || stats.ProbeWalks != seqStats.ProbeWalks {
					t.Fatalf("parallel(%d) join(cut=%d,%v) stats %+v, sequential %+v", par, cut, side, stats, seqStats)
				}
				if stats.BuildLeft != seqStats.BuildLeft || stats.LeftTuples != seqStats.LeftTuples || stats.RightTuples != seqStats.RightTuples {
					t.Fatalf("parallel(%d) join(cut=%d,%v) tuple stats %+v, sequential %+v", par, cut, side, stats, seqStats)
				}
			}
		}
	}
}

// TestParallelJoinStatsAggregatedOnce pins the aggregation contract of
// joinEnumerator.fill under fan-out: the shared build side is counted exactly once —
// never once per shard — and each shard's probe-local footprint is summed
// exactly once, including when the run stops early at the merge-enforced
// limit. A double-counting regression (each shard folding the shared
// tuples into PartialBytes) would roughly multiply the build component by
// the shard count; the equality below would catch it.
func TestParallelJoinStatsAggregatedOnce(t *testing.T) {
	g, q := layeredGraph(t, 4, 4)
	ix, err := BuildIndex(g, q)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 2
	const par = 2 // layer width 4 distinct cut vertices -> exactly 2 shards
	probeLen := q.K - cut + 1

	var seqStats JoinStats
	if _, err := EnumerateJoinSide(ix, cut, BuildLeft, RunControl{}, nil, &seqStats); err != nil {
		t.Fatal(err)
	}
	// The sequential footprint is build bytes plus one in-flight probe
	// buffer; peeling that buffer off isolates the build component.
	buildBytes := seqStats.PartialBytes - int64(probeLen)*4

	// Completed parallel run: build once + one probe buffer per shard.
	var stats JoinStats
	if _, err := EnumerateJoinSideParallel(ix, cut, BuildLeft, par, RunControl{}, nil, &stats); err != nil {
		t.Fatal(err)
	}
	wantBytes := buildBytes + int64(par*probeLen)*4
	if stats.PartialBytes != wantBytes {
		t.Fatalf("completed run: PartialBytes = %d, want %d (build %d once + %d probe buffers)", stats.PartialBytes, wantBytes, buildBytes, par)
	}
	if stats.ProbeWalks != seqStats.ProbeWalks {
		t.Fatalf("completed run: ProbeWalks = %d, sequential %d", stats.ProbeWalks, seqStats.ProbeWalks)
	}

	// Early-stopped parallel run (merge-enforced limit): the build side
	// still appears exactly once and shard walks sum without double count.
	var got int
	var stopped JoinStats
	done, err := EnumerateJoinSideParallel(ix, cut, BuildLeft, par, RunControl{
		Emit:  func([]graph.VertexID) bool { got++; return true },
		Limit: 3,
	}, nil, &stopped)
	if err != nil {
		t.Fatal(err)
	}
	if done || got != 3 {
		t.Fatalf("limited run: done=%v delivered=%d, want stopped after 3", done, got)
	}
	if stopped.BuildTuples != seqStats.BuildTuples {
		t.Fatalf("limited run: BuildTuples = %d, want %d (build counted once)", stopped.BuildTuples, seqStats.BuildTuples)
	}
	if stopped.PartialBytes != wantBytes {
		t.Fatalf("limited run: PartialBytes = %d, want %d", stopped.PartialBytes, wantBytes)
	}
	if stopped.ProbeWalks < 1 || stopped.ProbeWalks > seqStats.ProbeWalks {
		t.Fatalf("limited run: ProbeWalks = %d, want within [1,%d]", stopped.ProbeWalks, seqStats.ProbeWalks)
	}
}

// TestParallelLimitAtMergePoint: Limit means n results total across all
// shards — exact in both delivery mode (Emit set) and counting mode
// (Emit nil), never limit-per-shard and never limit+shards-1.
func TestParallelLimitAtMergePoint(t *testing.T) {
	g, q := layeredGraph(t, 5, 4) // 625 paths
	ix, err := BuildIndex(g, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		var got int
		var ctr Counters
		done := EnumerateDFSParallel(ix, par, RunControl{
			Emit:  func([]graph.VertexID) bool { got++; return true },
			Limit: 7,
		}, &ctr)
		if done || got != 7 || ctr.Results != 7 {
			t.Fatalf("parallel(%d) delivery mode: done=%v got=%d results=%d, want exactly 7", par, done, got, ctr.Results)
		}
		var cctr Counters
		done = EnumerateDFSParallel(ix, par, RunControl{Limit: 7}, &cctr)
		if done || cctr.Results != 7 {
			t.Fatalf("parallel(%d) counting mode: done=%v results=%d, want exactly 7", par, done, cctr.Results)
		}
	}
	// Counting mode without a limit free-runs and sums shard results.
	var free Counters
	if done := EnumerateDFSParallel(ix, 4, RunControl{}, &free); !done || free.Results != 625 {
		t.Fatalf("free-running count: done=%v results=%d, want 625", done, free.Results)
	}
}

// TestParallelCountingLimitAcrossBlocks: counting mode adds shard results
// to the shared count in blocks, and the limit must still be exact at and
// around every block edge — Results and Completed equal the sequential
// run's whether the limit falls inside a block, on its edge, one short of
// the total, on the total or past it.
func TestParallelCountingLimitAcrossBlocks(t *testing.T) {
	g, q := layeredGraph(t, 5, 4) // 625 paths
	ix, err := BuildIndex(g, q)
	if err != nil {
		t.Fatal(err)
	}
	var all Counters
	EnumerateDFS(ix, RunControl{}, &all)
	total := all.Results
	for _, limit := range []uint64{1, 255, 256, 257, total - 1, total, total + 1} {
		var seq Counters
		seqDone := EnumerateDFS(ix, RunControl{Limit: limit}, &seq)
		for _, par := range []int{2, 4, 8} {
			var ctr Counters
			done := EnumerateDFSParallel(ix, par, RunControl{Limit: limit}, &ctr)
			if done != seqDone || ctr.Results != seq.Results {
				t.Errorf("DFS limit %d parallel(%d): done=%v results=%d, sequential done=%v results=%d",
					limit, par, done, ctr.Results, seqDone, seq.Results)
			}
			var jctr Counters
			jdone, err := EnumerateJoinSideParallel(ix, 2, BuildLeft, par, RunControl{Limit: limit}, &jctr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if jdone != seqDone || jctr.Results != seq.Results {
				t.Errorf("join limit %d parallel(%d): done=%v results=%d, sequential done=%v results=%d",
					limit, par, jdone, jctr.Results, seqDone, seq.Results)
			}
		}
	}
}

// TestParallelStreamCancel: cancelling the consumer's context mid-stream
// ends a parallel stream early without an error, with OnResult reporting
// Completed == false — the sequential stream's cancellation contract.
func TestParallelStreamCancel(t *testing.T) {
	g, q := layeredGraph(t, 6, 6) // ~46k paths
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var res *Result
	got := 0
	for _, err := range NewSession(g, nil).StreamWith(ctx, q, Options{Parallelism: 4}, StreamConfig{
		OnResult: func(r *Result) { res = r },
	}) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		if got == 10 {
			cancel()
		}
	}
	if got >= 46656 {
		t.Fatalf("cancelled stream delivered the full result set (%d paths)", got)
	}
	if res == nil || res.Completed {
		t.Fatalf("cancelled stream result %+v, want Completed=false", res)
	}
}

// TestParallelFallbackSingleRoot: when s has a single first hop there is
// nothing to fan out; the parallel entry point must fall back without
// perturbing counters (in particular, not double-counting the root scan)
// while still honoring the owned-emission contract.
func TestParallelFallbackSingleRoot(t *testing.T) {
	// s -> a -> {b,c} -> t: one root, 2 paths of length 3.
	g, err := graph.NewGraph(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 4, K: 3}
	ix, err := BuildIndex(g, q)
	if err != nil {
		t.Fatal(err)
	}
	var seq Counters
	EnumerateDFS(ix, RunControl{}, &seq)
	var ctr Counters
	var paths [][]graph.VertexID
	if done := EnumerateDFSParallel(ix, 4, RunControl{Emit: func(p []graph.VertexID) bool {
		paths = append(paths, p) // must stay valid: fallback wraps Emit with a copy
		return true
	}}, &ctr); !done {
		t.Fatal("fallback run not completed")
	}
	if ctr != seq {
		t.Fatalf("fallback counters %+v, sequential %+v", ctr, seq)
	}
	want := sortedKeys([][]graph.VertexID{{0, 1, 2, 4}, {0, 1, 3, 4}})
	if !sameKeySets(sortedKeys(paths), want) {
		t.Fatalf("fallback paths %v, want %v", paths, want)
	}
}
