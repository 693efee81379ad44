package core

import (
	"context"

	"pathenum/internal/graph"
	"pathenum/internal/mem"
)

// Session amortizes per-query allocations across repeated queries on the
// same graph: the O(|V|) distance labelings and the index build's position
// map are allocated once and reused, and a query touches only the entries
// its budget-bounded labeling reaches. This targets the paper's
// online scenario, where a service answers a stream of queries against one
// in-memory graph and garbage-collector pressure matters (DESIGN.md notes
// GC overhead as the main Go-specific risk).
//
// A Session is a thin handle on the shared executor pipeline — the same
// pipeline core.Run uses with throwaway buffers — so the two can never
// diverge semantically.
//
// A Session is NOT safe for concurrent use; create one per worker (the
// public Engine does).
type Session struct {
	ex *executor
}

// NewSession creates a session over g. The oracle is optional and applies
// to every run that does not override it via Options.Oracle.
func NewSession(g *graph.Graph, oracle DistanceOracle) *Session {
	return &Session{ex: newExecutor(g, oracle)}
}

// NewSessionBudget is NewSession wired to a shared engine byte budget:
// every join-planned run admits its predicted build side against the
// budget (mem.ClassBuild) before materializing and degrades to the
// pinned-equal DFS plan when it does not fit (Result.MemFallback). The
// session's own pooled O(|V|) scratch is NOT charged here — the owner
// accounts it once per pooled session via SessionScratchBytes, since the
// scratch exists whether or not any query runs. A nil budget behaves
// exactly like NewSession.
func NewSessionBudget(g *graph.Graph, oracle DistanceOracle, b *mem.Budget) *Session {
	s := NewSession(g, oracle)
	s.ex.budget = b
	return s
}

// Bind points an idle session at another graph and oracle — the engine
// does this at every pool checkout, so sessions outlive the snapshot they
// were created on. The scratch is addressed by vertex id, sized by |V|
// alone and cleared from its own visit lists at the start of a run: it is
// kept when |V| is unchanged (every insert-only snapshot) and reallocated
// otherwise.
func (s *Session) Bind(g *graph.Graph, oracle DistanceOracle) {
	if n := g.NumVertices(); n != s.ex.g.NumVertices() {
		s.ex.scratch, s.ex.pos = newBFSScratch(n), newPosMap(n)
	}
	s.ex.g, s.ex.oracle = g, oracle
}

// Graph returns the session's graph.
func (s *Session) Graph() *graph.Graph { return s.ex.g }

// Run executes one query, reusing the session's buffers. Semantics match
// core.Run; the returned Result does not retain references to session
// buffers and stays valid after subsequent runs.
func (s *Session) Run(q Query, opts Options) (*Result, error) {
	return s.ex.execute(context.Background(), q, opts)
}

// RunContext is Run observing ctx: cancellation or a context deadline stops
// the enumeration early (Result.Completed reports false), checked on an
// amortized event counter alongside opts.Timeout.
func (s *Session) RunContext(ctx context.Context, q Query, opts Options) (*Result, error) {
	return s.ex.execute(ctx, q, opts)
}

// RunShared is RunContext with precomputed distance labelings substituted
// for either BFS pass: a non-nil fwd must be a forward Frontier from q.S,
// a non-nil bwd a backward Frontier from q.T, both built on the session's
// graph version with bound >= q.K and the predicate identified by
// opts.PredicateToken. Mismatched frontiers return an error — a frontier
// from an older epoch of the graph's lineage reports graph.ErrStaleEpoch
// under errors.Is. A nil side is computed per query as usual. This is the
// entry point of the engine's frontier cache: each shared side stands in
// for that side's per-query search, and the remaining side is searched
// only where the shared labels leave budget. Results are identical to RunContext's —
// frontier labels relax the per-query ones soundly (see Frontier).
func (s *Session) RunShared(ctx context.Context, q Query, opts Options, fwd, bwd *Frontier) (*Result, error) {
	return s.ex.executeShared(ctx, q, opts, fwd, bwd, nil)
}
