package core

import (
	"fmt"
	"time"

	"pathenum/internal/graph"
)

// JoinStats reports the footprint of one Algorithm-6 run, feeding the
// partial-result memory numbers of Table 7. The join is tuple-at-a-time:
// only the build side is materialized (into hash buckets keyed by the cut
// vertex), while the probe side is generated lazily one walk at a time, so
// the memory bound is the build side plus a single in-flight probe walk.
type JoinStats struct {
	// LeftTuples / RightTuples count the walks of Ra = Q[0:cut] and
	// Rb = Q[cut:k] the run generated. The build side's count is
	// materialized; the probe side's walks existed one at a time (see
	// ProbeWalks) — on a stopped run the probe count measures how far the
	// lazy generator got, not a materialized set.
	LeftTuples  int64
	RightTuples int64
	// PartialBytes is the bytes actually materialized: the build side's
	// flat tuple storage and bucket indices plus the single in-flight
	// probe walk buffer.
	PartialBytes int64
	// BuildLeft reports which side was hashed: true means Ra was
	// materialized and Rb probed lazily, false the reverse.
	BuildLeft bool
	// BuildTuples is the number of walks materialized into the hash side.
	BuildTuples int64
	// ProbeWalks is the number of probe-side walks fully generated. A run
	// stopped after n emitted paths keeps it near n — the lazy probe DFS
	// expands no further half-side walks once stopped.
	ProbeWalks int64
	// BuildTime / ProbeTime split the enumeration phase at the join's
	// natural seam: materializing + bucketing the build side vs the lazy
	// probe (which, under a stream, includes consumer time between
	// pulls). Filled on every exit path, early stops included; the
	// observability layer exports them as the join_build / join_probe
	// stage histograms.
	BuildTime time.Duration
	ProbeTime time.Duration
}

// BuildSide selects which half of the cut EnumerateJoinSide materializes
// into hash buckets; the other half is probed tuple-at-a-time.
type BuildSide int

const (
	// BuildAuto materializes the smaller half per the Algorithm-5
	// estimator (|Q[0:cut]| vs |Q[cut:k]| at the cut).
	BuildAuto BuildSide = iota
	// BuildLeft materializes Ra = Q[0:cut] and probes Q[cut:k].
	BuildLeft
	// BuildRight materializes Rb = Q[cut:k] and probes Q[0:cut].
	BuildRight
)

// String implements fmt.Stringer.
func (s BuildSide) String() string {
	switch s {
	case BuildAuto:
		return "auto"
	case BuildLeft:
		return "left"
	case BuildRight:
		return "right"
	default:
		return fmt.Sprintf("BuildSide(%d)", int(s))
	}
}

// joinEnumerator is the tuple-at-a-time join of Algorithm 6: the build
// side is materialized once and bucketed by cut vertex, then the probe
// side's index DFS runs lazily — each completed probe walk is joined
// against its bucket, validated and emitted immediately, before the DFS
// advances. Under an unbuffered stream the Emit inside emitJoined is the
// consumer's yield, so the probe recursion suspends mid-walk between pulls
// and stops dead when the consumer leaves.
//
// Both sides are *walks* of a fixed vertex count, collected by one index
// DFS (procedure Search of Algorithm 6) with no duplicate-vertex check;
// path validity is checked at join time, as §6.3 prescribes. Walks, buckets
// and validation state are index positions, |X|-sized; the joined walk
// becomes vertex ids in path, in the pass that validates it.
type joinEnumerator struct {
	ix  *Index
	cut int
	ctl *RunControl
	ctr *Counters

	buildLeft bool
	buildLen  int     // vertices per build tuple
	tuples    []int32 // build-side walks, flat, stride buildLen
	// The build tuples grouped by cut vertex: those with the cut vertex at
	// position c are numbers bucketIdx[bucketOff[c]:bucketOff[c+1]].
	bucketOff []int32
	bucketIdx []int32
	order     []int32 // distinct cut vertices of Ra, probe order

	probeLen int
	// The in-flight walk. While building it grows to buildLen vertices and
	// is appended to tuples; probing, to probeLen, and is joined at once.
	building   bool
	buf        []int32
	path       []graph.VertexID // the joined walk as handed to Emit
	seen       []int32          // per position: epoch of the last walk through it
	vepoch     int32
	ticker     uint32
	probeWalks int64
	stopped    bool

	// buildTime/probeTime are stamped by enumerateJoin around the two
	// phases (per run, not per tuple — the hot loops stay clock-free) and
	// copied out by fill.
	buildTime time.Duration
	probeTime time.Duration
}

func newJoinEnumerator(ix *Index, cut int, buildLeft bool, ctl *RunControl, ctr *Counters) *joinEnumerator {
	je := &joinEnumerator{
		ix:        ix,
		cut:       cut,
		ctl:       ctl,
		ctr:       ctr,
		buildLeft: buildLeft,
		buildLen:  cut + 1,
		probeLen:  ix.k - cut + 1,
		buf:       make([]int32, 0, ix.k+1),
		path:      make([]graph.VertexID, ix.k+1),
		seen:      make([]int32, len(ix.verts)),
	}
	if !buildLeft {
		je.buildLen, je.probeLen = je.probeLen, je.buildLen
	}
	return je
}

// EnumerateJoin runs the tuple-at-a-time join on the index (Algorithm 6)
// with the given cut position in [1, k-1], materializing the smaller half
// per the Algorithm-5 estimator. Resolving that side runs FullEstimate —
// an O(k * |E(index)|) DP — so callers that already hold an Estimate (or
// sit in a timed loop) should pass Estimate.BuildSideAt's answer to
// EnumerateJoinSide instead, as the executor does via Plan.Build.
func EnumerateJoin(ix *Index, cut int, ctl RunControl, ctr *Counters, stats *JoinStats) (bool, error) {
	return EnumerateJoinSide(ix, cut, BuildAuto, ctl, ctr, stats)
}

// EnumerateJoinSide runs the join with an explicit build side: the chosen
// half is materialized with depth-first searches on the index and bucketed
// on the cut vertex; the other half is generated lazily, one walk at a
// time, each joined walk validated (simple-path check, Theorem 3.1) and
// emitted before the probe advances — the first result is delivered after
// building only one side, and the memory bound is that side plus a single
// in-flight probe walk. Results and Counters.Results are identical for
// either side and match the materialize-then-probe formulation (only the
// emission order differs). It returns true when the run completed (no
// stop/limit) and fills stats — also on early stops — when non-nil.
func EnumerateJoinSide(ix *Index, cut int, side BuildSide, ctl RunControl, ctr *Counters, stats *JoinStats) (bool, error) {
	return enumerateJoin(ix, cut, side, 0, ctl, ctr, stats)
}

// buildReserveMax is the largest build side allocated up front from an
// estimate, in int32s (64 MB). Past it — a saturated estimate, a forced join
// on an enormous query — storage grows by append as the build proceeds, so a
// stop hook still ends the run before the memory is committed.
const buildReserveMax = 1 << 24

// enumerateJoin is the one join driver: build the chosen side, then probe
// the other. buildWalks, when the caller holds an estimate, is the number of
// walks the build side will hold (or an upper bound; 0 = unknown): its
// storage is then allocated once instead of grown.
func enumerateJoin(ix *Index, cut int, side BuildSide, buildWalks uint64, ctl RunControl, ctr *Counters, stats *JoinStats) (bool, error) {
	if ctr == nil {
		ctr = &Counters{}
	}
	if ix.Empty() {
		return true, nil
	}
	if cut < 1 || cut >= ix.k {
		return false, fmt.Errorf("core: join cut %d out of range [1,%d]", cut, ix.k-1)
	}
	if side == BuildAuto {
		side = FullEstimate(ix).BuildSideAt(cut)
	}
	je := newJoinEnumerator(ix, cut, side == BuildLeft, &ctl, ctr)
	if buildWalks <= buildReserveMax/uint64(je.buildLen) {
		je.tuples = make([]int32, 0, int(buildWalks)*je.buildLen)
	}
	if stats != nil {
		defer je.fill(stats)
	}
	start := time.Now()
	ok := je.build()
	je.buildTime = time.Since(start)
	if !ok {
		return false, nil
	}
	start = time.Now()
	je.probe()
	je.probeTime = time.Since(start)
	return !je.stopped, nil
}

// build materializes the build side and buckets it by cut vertex. Reports
// false when a stop hook fired mid-build.
func (je *joinEnumerator) build() bool {
	je.building = true
	if je.buildLeft {
		// Ra = walks from s spanning positions 0..cut.
		je.buf = append(je.buf[:0], je.ix.sPos)
		je.walk(0)
	} else {
		// Rb = walks spanning positions cut..k, one search per possible cut
		// vertex. Distance bounds (C_cut membership) are necessary but not
		// sufficient for a vertex to appear at the cut — padding lives only
		// at t, so the left half needs a genuine length-cut walk — hence the
		// exact-position reachability filter, which also keeps |Rb| within
		// the delta_W bound of Proposition 6.1.
		for _, v := range je.ix.exactReachPositions(je.cut) {
			je.buf = append(je.buf[:0], v)
			je.walk(je.cut)
			if je.stopped {
				break
			}
		}
	}
	je.building = false
	if je.stopped {
		return false
	}
	je.bucket()
	return true
}

// bucket groups the build tuples by their cut vertex — the last vertex of a
// left tuple, the first of a right one — with a stable counting sort, and
// records the distinct cut vertices in first-appearance order, which keeps
// the build-left probe deterministic.
func (je *joinEnumerator) bucket() {
	at := 0
	if je.buildLeft {
		at = je.cut
	}
	m, n := len(je.ix.verts), len(je.tuples)/je.buildLen
	off := make([]int32, m+1)
	for i := 0; i < n; i++ {
		c := je.tuples[i*je.buildLen+at]
		if off[c] == 0 {
			je.order = append(je.order, c)
		}
		off[c]++
	}
	for c := 1; c < m; c++ {
		off[c] += off[c-1] // one past the last slot of c
	}
	off[m] = int32(n)
	idx := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		c := je.tuples[i*je.buildLen+at]
		off[c]--
		idx[off[c]] = int32(i)
	}
	je.bucketOff, je.bucketIdx = off, idx
}

// probe generates the lazy side: one right-half DFS from each distinct
// cut vertex of Ra when building left, the one left-half DFS from s when
// building right.
func (je *joinEnumerator) probe() {
	if !je.buildLeft {
		je.buf = append(je.buf[:0], je.ix.sPos)
		je.walk(0)
		return
	}
	for _, c := range je.order {
		je.buf = append(je.buf[:0], c)
		je.walk(je.cut)
		if je.stopped {
			return
		}
	}
}

// walk extends the in-flight walk one vertex at a time (startPos is the
// absolute query position of buf[0]). A complete build walk is stored; a
// complete probe walk is joined and emitted before the DFS advances, so a
// consumer that stops pulling suspends the recursion mid-walk and a stop
// unwinds it without expanding further half-side walks.
func (je *joinEnumerator) walk(startPos int) {
	depth := len(je.buf)
	if je.building {
		if depth == je.buildLen {
			je.tuples = append(je.tuples, je.buf...)
			return
		}
	} else if depth == je.probeLen {
		je.probeWalks++
		je.emitJoined()
		return
	}
	je.ticker++
	if je.ticker%stopCheckInterval == 0 && je.ctl.ShouldStop != nil && je.ctl.ShouldStop() {
		je.stopped = true
		return
	}
	// Budget: k - i - L(M) - 1 where i is the sub-query start position.
	budget := je.ix.k - startPos - (depth - 1) - 1
	nbrs := je.ix.outUpToPos(je.buf[depth-1], budget)
	je.ctr.EdgesAccessed += uint64(len(nbrs))
	for _, w := range nbrs {
		je.buf = append(je.buf, w)
		je.walk(startPos)
		je.buf = je.buf[:depth]
		if je.stopped {
			return
		}
	}
}

// emitJoined joins the completed probe walk against the bucket of its cut
// vertex, validating and emitting every simple path immediately.
func (je *joinEnumerator) emitJoined() {
	probe := je.buf
	c := probe[0]
	if !je.buildLeft {
		c = probe[len(probe)-1]
	}
	for _, i := range je.bucketIdx[je.bucketOff[c]:je.bucketOff[c+1]] {
		// The halves share the cut vertex; the right one gives its copy up.
		left, right := je.tuples[int(i)*je.buildLen:(int(i)+1)*je.buildLen], probe[1:]
		if !je.buildLeft {
			left, right = probe, left[1:]
		}
		je.vepoch++
		if je.vepoch == 0 {
			// 2^32 candidates later the epoch is back at seen's zero value,
			// and after it come the stamps of the first lap: start over.
			clear(je.seen)
			je.vepoch = 1
		}
		if path, ok := je.joinPath(left, right); ok {
			je.ctr.Results++
			if je.ctl.Emit != nil && !je.ctl.Emit(path) {
				je.stopped = true
				return
			}
			if je.ctl.Limit > 0 && je.ctr.Results >= je.ctl.Limit {
				je.stopped = true
				return
			}
		}
		if je.ctl.ShouldStop != nil && je.vepoch%stopCheckInterval == 0 && je.ctl.ShouldStop() {
			je.stopped = true
			return
		}
	}
}

// joinPath checks whether the padded walk left·right (k+1 positions ending
// in t-padding) is a simple path and, in the same pass, writes it out as
// vertex ids; it returns the path truncated at the first t. The caller
// advances vepoch per walk. Interior occurrences of s cannot arise (the
// index has no edges into s), so only duplicate detection up to the first t
// is required (Theorem 3.1).
func (je *joinEnumerator) joinPath(left, right []int32) ([]graph.VertexID, bool) {
	verts, tPos, seen, epoch := je.ix.verts, je.ix.tPos, je.seen, je.vepoch
	n := 0
	for _, half := range [2][]int32{left, right} {
		for _, p := range half {
			je.path[n] = verts[p]
			n++
			if p == tPos {
				return je.path[:n], true
			}
			if seen[p] == epoch {
				return nil, false
			}
			seen[p] = epoch
		}
	}
	// Index construction guarantees position k is t; defensive fallback.
	return nil, false
}

// fill snapshots the run's footprint into stats (all exit paths): the
// build side plus the single in-flight probe walk buffer.
func (je *joinEnumerator) fill(stats *JoinStats) {
	nBuild := int64(len(je.tuples) / je.buildLen)
	stats.BuildLeft = je.buildLeft
	stats.BuildTuples = nBuild
	stats.ProbeWalks = je.probeWalks
	if je.buildLeft {
		stats.LeftTuples, stats.RightTuples = nBuild, je.probeWalks
	} else {
		stats.LeftTuples, stats.RightTuples = je.probeWalks, nBuild
	}
	stats.PartialBytes = int64(len(je.tuples))*4 + nBuild*4 + int64(je.probeLen)*4
	stats.BuildTime = je.buildTime
	stats.ProbeTime = je.probeTime
}

// exactReachPositions returns the positions of the vertices reachable from
// s in exactly cut index steps — the possible cut vertices of a left
// half-tuple. O(cut * |E(index)|) boolean DP mirroring the left searcher's
// budgets (step i admits neighbors w with w.t <= k-i).
func (ix *Index) exactReachPositions(cut int) []int32 {
	m := len(ix.verts)
	cur := make([]bool, m)
	next := make([]bool, m)
	cur[ix.sPos] = true
	for step := 1; step <= cut; step++ {
		clear(next)
		for p := 0; p < m; p++ {
			if !cur[p] {
				continue
			}
			for _, w := range ix.outUpToPos(int32(p), ix.k-step) {
				next[w] = true
			}
		}
		cur, next = next, cur
	}
	var out []int32
	for p := 0; p < m; p++ {
		if cur[p] {
			out = append(out, int32(p))
		}
	}
	return out
}
