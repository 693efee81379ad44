package core

import "pathenum/internal/graph"

// Counters collects the enumeration-cost metrics the paper reports in
// Figure 6 and §7.2.
type Counters struct {
	// Results is the number of paths emitted.
	Results uint64
	// InvalidPartials counts partial results whose subtree produced no
	// result ("#Invalid" in Figure 6).
	InvalidPartials uint64
	// EdgesAccessed counts neighbor-list entries scanned ("#Edges").
	EdgesAccessed uint64
}

// RunControl bounds an enumeration run. The zero value runs to completion.
type RunControl struct {
	// Emit receives each result path (s..t). The slice is reused between
	// calls; copy it to retain. Returning false stops the enumeration.
	// A nil Emit counts results without materializing them.
	Emit func(path []graph.VertexID) bool
	// Limit stops the run after this many results when positive.
	Limit uint64
	// ShouldStop is polled periodically (roughly every 1024 expansions) so
	// callers can enforce deadlines; a nil func never stops.
	ShouldStop func() bool
}

// stopCheckInterval balances deadline responsiveness against polling cost.
const stopCheckInterval = 1024

// dfsSearcher is the state of one Algorithm-4 run. The search walks index
// positions; path carries the vertex ids Emit receives.
type dfsSearcher struct {
	ix      *Index
	ctl     RunControl
	ctr     *Counters
	path    []graph.VertexID
	onPath  []bool // indexed by index position
	ticker  uint32
	stopped bool
}

// newDFSSearcher returns a searcher whose partial result is s alone; the
// caller continues with search(ix.sPos) or seeds a first hop itself.
func newDFSSearcher(ix *Index, ctl RunControl, ctr *Counters) *dfsSearcher {
	s := &dfsSearcher{
		ix:     ix,
		ctl:    ctl,
		ctr:    ctr,
		path:   make([]graph.VertexID, 0, ix.k+1),
		onPath: make([]bool, len(ix.verts)),
	}
	s.path = append(s.path, ix.q.S)
	s.onPath[ix.sPos] = true
	return s
}

// EnumerateDFS runs the depth-first search on the index (Algorithm 4) and
// returns true if the enumeration ran to completion (no stop/limit hit).
// Counters, when non-nil, accumulate cost metrics.
func EnumerateDFS(ix *Index, ctl RunControl, ctr *Counters) bool {
	if ctr == nil {
		ctr = &Counters{}
	}
	if ix.Empty() {
		return true
	}
	s := newDFSSearcher(ix, ctl, ctr)
	s.search(ix.sPos)
	return !s.stopped
}

// search expands the last vertex of the current partial result M, whose
// position is p, and returns the number of results found in its subtree
// (used to detect invalid partial results).
func (s *dfsSearcher) search(p int32) uint64 {
	ix := s.ix
	if p == ix.tPos {
		s.ctr.Results++
		if s.ctl.Emit != nil && !s.ctl.Emit(s.path) {
			s.stopped = true
		}
		if s.ctl.Limit > 0 && s.ctr.Results >= s.ctl.Limit {
			s.stopped = true
		}
		return 1
	}
	s.ticker++
	if s.ticker%stopCheckInterval == 0 && s.ctl.ShouldStop != nil && s.ctl.ShouldStop() {
		s.stopped = true
		return 0
	}
	budget := ix.k - (len(s.path) - 1) - 1 // k - L(M) - 1
	nbrs := ix.outUpToPos(p, budget)
	s.ctr.EdgesAccessed += uint64(len(nbrs))
	var found uint64
	for _, wp := range nbrs {
		if s.onPath[wp] {
			continue
		}
		s.path = append(s.path, ix.verts[wp])
		s.onPath[wp] = true
		sub := s.search(wp)
		s.onPath[wp] = false
		s.path = s.path[:len(s.path)-1]
		if sub == 0 {
			s.ctr.InvalidPartials++
		}
		found += sub
		if s.stopped {
			break
		}
	}
	return found
}
