package core

import (
	"math"
	"math/rand"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// TestFullEstimateExactWalkCount: the full-fledged estimator computes the
// exact number of walks delta_W = |W(s,t,k,G)| (§6.4: the method
// "calculates the number of walks from s to t").
func TestFullEstimateExactWalkCount(t *testing.T) {
	g := paperGraph(t)
	ix := mustIndex(t, g, paperQuery())
	est := FullEstimate(ix)
	want := bruteWalksLocal(g, vS, vT, 4)
	if want != 6 {
		t.Fatalf("oracle walk count = %d, expected 6 on the paper example", want)
	}
	if est.Walks != uint64(want) {
		t.Fatalf("Walks = %d, want %d", est.Walks, want)
	}
}

func TestFullEstimateExactWalkCountRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 1 + rng.Intn(5)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		est := FullEstimate(ix)
		want := bruteWalksLocal(g, s, tt, k)
		if est.Walks != uint64(want) {
			t.Fatalf("trial %d (n=%d s=%d t=%d k=%d): Walks = %d, oracle %d",
				trial, n, s, tt, k, est.Walks, want)
		}
	}
}

// TestFullEstimateSymmetry: the forward and backward dynamic programs must
// agree on the total tuple count: |Q| = sum c^0_k = sum c^k_k-weighted...
// i.e. SumFromS[k] == SumToT[0].
func TestFullEstimateSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(12)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(4)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		est := FullEstimate(ix)
		if est.SumFromS[k] != est.SumToT[0] {
			t.Fatalf("trial %d: SumFromS[k]=%d != SumToT[0]=%d",
				trial, est.SumFromS[k], est.SumToT[0])
		}
	}
}

// TestEstimateUpperBoundsPaths: delta_P <= delta_W always.
func TestEstimateUpperBoundsPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*4, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(4)
		ix := mustIndex(t, g, Query{S: s, T: tt, K: k})
		est := FullEstimate(ix)
		paths := uint64(len(brutePathsLocal(g, s, tt, k)))
		if est.Walks < paths {
			t.Fatalf("trial %d: walks %d < paths %d", trial, est.Walks, paths)
		}
	}
}

func TestFullEstimateEmptyIndex(t *testing.T) {
	g, err := graph.NewGraph(3, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ix := mustIndex(t, g, Query{S: 0, T: 2, K: 3})
	est := FullEstimate(ix)
	if est.Walks != 0 || est.TDFS != 0 {
		t.Fatalf("empty index: Walks=%d TDFS=%d, want 0", est.Walks, est.TDFS)
	}
}

// TestFullEstimateCutMinimizes: the cut position is the interior argmin of
// |Q[0:i]| + |Q[i:k]|.
func TestFullEstimateCutMinimizes(t *testing.T) {
	g := gen.Layered(4, 3)
	ix := mustIndex(t, g, Query{S: 0, T: 1, K: 4})
	est := FullEstimate(ix)
	if est.Cut < 1 || est.Cut > 3 {
		t.Fatalf("Cut = %d, want interior position", est.Cut)
	}
	best := est.SumFromS[est.Cut] + est.SumToT[est.Cut]
	for i := 1; i < 4; i++ {
		if c := est.SumFromS[i] + est.SumToT[i]; c < best {
			t.Fatalf("cut %d has cost %d < chosen %d (cost %d)", i, c, est.Cut, best)
		}
	}
}

// TestFullEstimateKOne: no interior cut exists; TJoin must be maximal so
// the planner always picks DFS.
func TestFullEstimateKOne(t *testing.T) {
	g := paperGraph(t)
	ix := mustIndex(t, g, Query{S: vV0, T: vT, K: 1})
	est := FullEstimate(ix)
	if est.Cut != 0 {
		t.Fatalf("Cut = %d, want 0 for k=1", est.Cut)
	}
	if est.TJoin != math.MaxUint64 {
		t.Fatalf("TJoin = %d, want MaxUint64", est.TJoin)
	}
	if est.Walks != 1 {
		t.Fatalf("Walks = %d, want 1 (the direct edge)", est.Walks)
	}
}

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{1, 2, 3},
		{0, 0, 0},
		{math.MaxUint64, 1, math.MaxUint64},
		{math.MaxUint64 - 1, 1, math.MaxUint64},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Errorf("satAdd(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPreliminaryEstimatePositive(t *testing.T) {
	g := paperGraph(t)
	ix := mustIndex(t, g, paperQuery())
	est := PreliminaryEstimate(ix)
	if est <= 0 {
		t.Fatalf("PreliminaryEstimate = %f, want > 0 (paths exist)", est)
	}
	if math.IsInf(est, 0) || math.IsNaN(est) {
		t.Fatalf("PreliminaryEstimate = %f, want finite", est)
	}
}

func TestPreliminaryEstimateEmpty(t *testing.T) {
	g, err := graph.NewGraph(3, []graph.Edge{{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ix := mustIndex(t, g, Query{S: 0, T: 2, K: 3})
	if est := PreliminaryEstimate(ix); est != 0 {
		t.Fatalf("PreliminaryEstimate = %f, want 0 for empty index", est)
	}
}

// TestPreliminaryTracksSearchSpace: the preliminary estimate must grow with
// the real search space across layered graphs of increasing width.
func TestPreliminaryTracksSearchSpace(t *testing.T) {
	prev := 0.0
	for _, width := range []int{2, 4, 8} {
		g := gen.Layered(width, 3)
		ix := mustIndex(t, g, Query{S: 0, T: 1, K: 4})
		est := PreliminaryEstimate(ix)
		if est <= prev {
			t.Fatalf("width %d: estimate %f not increasing (prev %f)", width, est, prev)
		}
		prev = est
	}
}

// TestEstimateLayeredExact: on a layered graph the DP counts are fully
// predictable: width^layers walks, all simple.
func TestEstimateLayeredExact(t *testing.T) {
	g := gen.Layered(3, 3) // 27 paths, length 4
	ix := mustIndex(t, g, Query{S: 0, T: 1, K: 4})
	est := FullEstimate(ix)
	if est.Walks != 27 {
		t.Fatalf("Walks = %d, want 27", est.Walks)
	}
	// TDFS = sum of level sizes of the DP: 3 + 9 + 27 + 27(padded) ... at
	// least it must be >= walks.
	if est.TDFS < est.Walks {
		t.Fatalf("TDFS = %d < Walks = %d", est.TDFS, est.Walks)
	}
}

func TestEstimatePositionAccessors(t *testing.T) {
	g := paperGraph(t)
	ix := mustIndex(t, g, paperQuery())
	est := FullEstimate(ix)
	sPos, tPos := ix.sPos, ix.tPos
	if got := est.WalksToPosition(0, sPos); got != 1 {
		t.Fatalf("c^0_0(s) = %d, want 1", got)
	}
	if got := est.WalksFromPosition(4, tPos); got != 1 {
		t.Fatalf("c^k_k(t) = %d, want 1", got)
	}
	if got := est.WalksFromPosition(0, sPos); got != est.Walks {
		t.Fatalf("c^0_k(s) = %d, want Walks = %d", got, est.Walks)
	}
}
