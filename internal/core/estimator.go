package core

import "math"

// PreliminaryEstimate implements Equation 5: a rough O(k^2) estimate of the
// search-space size computed from per-level statistics collected during
// index construction. gamma_j is the average fan-out of a level-j vertex
// under the remaining budget; the estimate is the sum over levels of the
// product of fan-outs.
func PreliminaryEstimate(ix *Index) float64 {
	if ix.Empty() {
		return 0
	}
	k := ix.k
	est := 0.0
	product := 1.0
	for j := 0; j < k; j++ {
		size := float64(ix.cSize[j])
		if size == 0 {
			return est
		}
		gamma := float64(ix.sumIt[j]) / size
		product *= gamma
		est += product
		if math.IsInf(est, 0) {
			return math.MaxFloat64
		}
	}
	return est
}

// Estimate is the output of the full-fledged cardinality estimator
// (Algorithm 5). All counts are padded-walk counts under the join model of
// §3.1 and saturate at MaxUint64 instead of overflowing.
type Estimate struct {
	k int

	// fromS[i][p] = c^0_i(v): number of Q[0:i] tuples ending at the vertex
	// with dense position p (walks of length i from s, with (t,t) padding).
	fromS [][]uint64
	// toT[i][p] = c^i_k(v): number of Q[i:k] tuples starting at p.
	toT [][]uint64

	// SumFromS[i] = |Q[0:i]|, SumToT[i] = |Q[i:k]| (Equation 6).
	SumFromS []uint64
	SumToT   []uint64

	// Walks is the total padded-walk count |Q| = delta_W.
	Walks uint64

	// Cut is the optimal cut position i* in [1, k-1] minimizing
	// |Q[0:i]| + |Q[i:k]| (line 11). Zero when k < 2.
	Cut int

	// TDFS and TJoin are the cost-model totals (§6.3) for the left-deep
	// plan (Algorithm 4) and the bushy plan at Cut (Algorithm 6).
	TDFS  uint64
	TJoin uint64
}

func satAdd(a, b uint64) uint64 {
	c := a + b
	if c < a {
		return math.MaxUint64
	}
	return c
}

// FullEstimate runs the full-fledged estimator: two dynamic programs over
// the index levels, one backward from t (lines 1-5 of Algorithm 5) and one
// forward from s (lines 6-10), then selects the cut position (line 11).
// Time O(k * |E(index)|), space O(k * |X|).
func FullEstimate(ix *Index) *Estimate {
	k := ix.k
	est := &Estimate{
		k:        k,
		SumFromS: make([]uint64, k+1),
		SumToT:   make([]uint64, k+1),
	}
	if ix.Empty() {
		return est
	}
	m := len(ix.verts)
	est.fromS = make([][]uint64, k+1)
	est.toT = make([][]uint64, k+1)
	for i := 0; i <= k; i++ {
		est.fromS[i] = make([]uint64, m)
		est.toT[i] = make([]uint64, m)
	}

	inC := func(p int32, i int) bool {
		return int(ix.vs[p]) <= i && int(ix.vt[p]) <= k-i
	}

	// Backward DP: c^k_k(t) = 1; c^i_k(v) = sum over w in It(v, k-i-1)
	// restricted to C_{i+1} of c^{i+1}_k(w).
	est.toT[k][ix.tPos] = 1
	est.SumToT[k] = 1
	for i := k - 1; i >= 0; i-- {
		row, next := est.toT[i], est.toT[i+1]
		var levelSum uint64
		for p := int32(0); p < int32(m); p++ {
			if !inC(p, i) {
				continue
			}
			var c uint64
			for _, wp := range ix.outUpToPos(p, k-i-1) {
				if int(ix.vs[wp]) <= i+1 { // w in C_{i+1}; w.t bound holds via It
					c = satAdd(c, next[wp])
				}
			}
			row[p] = c
			levelSum = satAdd(levelSum, c)
		}
		est.SumToT[i] = levelSum
	}

	// Forward DP: c^0_0(s) = 1; c^0_i(v) = sum over w in Is(v, i-1)
	// restricted to C_{i-1} of c^0_{i-1}(w).
	est.fromS[0][ix.sPos] = 1
	est.SumFromS[0] = 1
	for i := 1; i <= k; i++ {
		row, prev := est.fromS[i], est.fromS[i-1]
		var levelSum uint64
		for p := int32(0); p < int32(m); p++ {
			if !inC(p, i) {
				continue
			}
			var c uint64
			for _, wp := range ix.inUpToPos(p, i-1) {
				if int(ix.vt[wp]) <= k-(i-1) { // w in C_{i-1}; w.s bound via Is
					c = satAdd(c, prev[wp])
				}
			}
			row[p] = c
			levelSum = satAdd(levelSum, c)
		}
		est.SumFromS[i] = levelSum
	}

	est.Walks = est.SumFromS[k]

	// T_DFS: the left-deep plan materializes every prefix level (§6.3).
	for i := 1; i <= k; i++ {
		est.TDFS = satAdd(est.TDFS, est.SumFromS[i])
	}

	// Cut position i* minimizing |Q[0:i]| + |Q[i:k]| over interior cuts.
	if k >= 2 {
		best := uint64(math.MaxUint64)
		for i := 1; i < k; i++ {
			c := satAdd(est.SumFromS[i], est.SumToT[i])
			if c < best {
				best = c
				est.Cut = i
			}
		}
		// T_JOIN = |Q| + sum_{1<=i<=i*} |Q[0:i]| + sum_{i*<=i<=k} |Q[i*:k]|
		// evaluated with the per-level sums of the two DPs (§6.3).
		est.TJoin = est.Walks
		for i := 1; i <= est.Cut; i++ {
			est.TJoin = satAdd(est.TJoin, est.SumFromS[i])
		}
		for i := est.Cut; i <= k; i++ {
			est.TJoin = satAdd(est.TJoin, est.SumToT[i])
		}
	} else {
		est.TJoin = math.MaxUint64 // no interior cut exists
	}
	return est
}

// BuildSideAt returns the hash-side choice of the tuple-at-a-time join
// at the given interior cut: the smaller estimated half (BuildLeft on
// ties). BuildSideAt(e.Cut) is the planner's choice at the optimal cut.
func (e *Estimate) BuildSideAt(cut int) BuildSide {
	if cut < 1 || cut >= e.k || e.SumFromS[cut] <= e.SumToT[cut] {
		return BuildLeft
	}
	return BuildRight
}

// WalksFromPosition returns c^i_k(v) for external consumers (tests).
func (e *Estimate) WalksFromPosition(i int, p int32) uint64 {
	if e.toT == nil {
		return 0
	}
	return e.toT[i][p]
}

// WalksToPosition returns c^0_i(v) for external consumers (tests).
func (e *Estimate) WalksToPosition(i int, p int32) uint64 {
	if e.fromS == nil {
		return 0
	}
	return e.fromS[i][p]
}
