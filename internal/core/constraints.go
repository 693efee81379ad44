package core

import (
	"errors"

	"pathenum/internal/automaton"
	"pathenum/internal/graph"
)

// Accumulator defines the accumulative-value constraint of Appendix E
// (Algorithm 7): a commutative, associative binary operation folds per-edge
// values along the path, and a path is a result only if the total passes
// Accept.
type Accumulator struct {
	// Value returns alpha(e) for the edge (from, to).
	Value func(from, to graph.VertexID) float64
	// Combine is the binary operation ⊕; it must be commutative and
	// associative (e.g. sum, product, max).
	Combine func(a, b float64) float64
	// Identity is the initial accumulator value (0 for sum, 1 for product).
	Identity float64
	// Accept decides whether a completed path's total qualifies.
	Accept func(total float64) bool
	// Prune, when non-nil, lets the search drop a partial result early:
	// it receives the partial total and remaining hop budget and returns
	// true when no extension can qualify (only sound for monotone
	// constraints, as §E cautions for negative weights).
	Prune func(partial float64, remainingHops int) bool
}

// SequenceConstraint defines the label-sequence constraint of Appendix E
// (Algorithm 8): edge labels drive a DFA; a path qualifies when the DFA
// ends in an accepting state.
type SequenceConstraint struct {
	// Automaton is the constraint DFA.
	Automaton *automaton.DFA
	// Label returns the action label of the edge (from, to).
	Label func(from, to graph.VertexID) automaton.Label
}

// Constraints bundles the Appendix-E extensions applied to a query.
// Zero-value fields are inactive.
type Constraints struct {
	// Predicate filters edges during index construction; combined with the
	// hop constraint it affects both enumeration methods.
	Predicate EdgePredicate
	// Accumulate applies an accumulative-value constraint.
	Accumulate *Accumulator
	// Sequence applies a label-sequence constraint.
	Sequence *SequenceConstraint
}

// Errors returned by the constrained runner.
var (
	ErrBadAccumulator = errors.New("core: accumulator needs Value, Combine and Accept")
	ErrBadSequence    = errors.New("core: sequence constraint needs Automaton and Label")
)

func (c *Constraints) validate() error {
	if c.Accumulate != nil {
		a := c.Accumulate
		if a.Value == nil || a.Combine == nil || a.Accept == nil {
			return ErrBadAccumulator
		}
	}
	if c.Sequence != nil {
		s := c.Sequence
		if s.Automaton == nil || s.Label == nil {
			return ErrBadSequence
		}
	}
	return nil
}

// constrainedSearcher extends the index DFS with per-depth accumulator
// values and automaton states (Algorithms 7 and 8 share the recursion).
type constrainedSearcher struct {
	ix      *Index
	cons    *Constraints
	ctl     RunControl
	ctr     *Counters
	path    []graph.VertexID
	accs    []float64         // accs[d] = accumulated value at depth d
	states  []automaton.State // states[d] = automaton state at depth d
	onPath  []bool            // indexed by index position
	ticker  uint32
	stopped bool
}

// EnumerateConstrainedDFS runs the constrained depth-first search on the
// index. The hop constraint and predicate are enforced structurally by the
// index; the accumulator and automaton are carried through the recursion
// and checked at emission (plus optional monotone pruning).
func EnumerateConstrainedDFS(ix *Index, cons Constraints, ctl RunControl, ctr *Counters) (bool, error) {
	if err := cons.validate(); err != nil {
		return false, err
	}
	if ctr == nil {
		ctr = &Counters{}
	}
	if ix.Empty() {
		return true, nil
	}
	s := &constrainedSearcher{
		ix:     ix,
		cons:   &cons,
		ctl:    ctl,
		ctr:    ctr,
		path:   make([]graph.VertexID, 0, ix.k+1),
		onPath: make([]bool, len(ix.verts)),
	}
	if cons.Accumulate != nil {
		s.accs = make([]float64, 1, ix.k+1)
		s.accs[0] = cons.Accumulate.Identity
	}
	if cons.Sequence != nil {
		s.states = make([]automaton.State, 1, ix.k+1)
		s.states[0] = cons.Sequence.Automaton.Start()
	}
	s.path = append(s.path, ix.q.S)
	s.onPath[ix.sPos] = true
	s.search(ix.sPos)
	return !s.stopped, nil
}

func (s *constrainedSearcher) qualifies() bool {
	d := len(s.path) - 1
	if a := s.cons.Accumulate; a != nil && !a.Accept(s.accs[d]) {
		return false
	}
	if q := s.cons.Sequence; q != nil && !q.Automaton.Accepting(s.states[d]) {
		return false
	}
	return true
}

// search expands the last vertex of the partial result, whose position is
// p. The walk is in positions; the constraints see vertex ids.
func (s *constrainedSearcher) search(p int32) {
	ix := s.ix
	if p == ix.tPos {
		if s.qualifies() {
			s.ctr.Results++
			if s.ctl.Emit != nil && !s.ctl.Emit(s.path) {
				s.stopped = true
			}
			if s.ctl.Limit > 0 && s.ctr.Results >= s.ctl.Limit {
				s.stopped = true
			}
		}
		return
	}
	s.ticker++
	if s.ticker%stopCheckInterval == 0 && s.ctl.ShouldStop != nil && s.ctl.ShouldStop() {
		s.stopped = true
		return
	}
	depth := len(s.path) - 1
	budget := ix.k - depth - 1
	nbrs := ix.outUpToPos(p, budget)
	s.ctr.EdgesAccessed += uint64(len(nbrs))
	v := ix.verts[p]
	for _, wp := range nbrs {
		if s.onPath[wp] {
			continue
		}
		w := ix.verts[wp]
		if a := s.cons.Accumulate; a != nil {
			next := a.Combine(s.accs[depth], a.Value(v, w))
			if a.Prune != nil && a.Prune(next, budget) {
				continue
			}
			s.accs = append(s.accs[:depth+1], next)
		}
		if q := s.cons.Sequence; q != nil {
			next := q.Automaton.Step(s.states[depth], q.Label(v, w))
			if next == automaton.Invalid {
				continue // Algorithm 8 line 9: invalid action, skip
			}
			s.states = append(s.states[:depth+1], next)
		}
		s.path = append(s.path, w)
		s.onPath[wp] = true
		s.search(wp)
		s.onPath[wp] = false
		s.path = s.path[:len(s.path)-1]
		if s.stopped {
			return
		}
	}
}

// RunConstrained executes a constrained query end to end: predicate-filtered
// index construction followed by the constrained DFS. Join-based evaluation
// is intentionally not offered here even though the join now streams
// tuple-at-a-time: Appendix E notes the DFS terminates invalid branches
// earlier, and the accumulative/sequence constraints would still have to
// post-filter each joined tuple whole (half-side walks carry no automaton
// state for the other half). The two formulations are equivalent — the
// per-tuple validation this DFS performs yields exactly the whole-tuple
// post-filter over the streaming join's output, pinned by
// TestConstraintsJoinPostFilterEquivalence across cuts and build sides.
func RunConstrained(g *graph.Graph, q Query, cons Constraints, ctl RunControl) (*Result, error) {
	if err := q.Validate(g); err != nil {
		return nil, err
	}
	if err := cons.validate(); err != nil {
		return nil, err
	}
	res := &Result{Query: q}
	ix, err := BuildIndexFiltered(g, q, cons.Predicate)
	if err != nil {
		return nil, err
	}
	res.IndexEdges = ix.Edges()
	res.IndexVertices = ix.NumIndexed()
	res.IndexBytes = ix.MemoryBytes()
	res.Plan = Plan{Method: MethodDFS, Preliminary: PreliminaryEstimate(ix)}
	done, err := EnumerateConstrainedDFS(ix, cons, ctl, &res.Counters)
	if err != nil {
		return nil, err
	}
	res.Completed = done
	return res, nil
}
