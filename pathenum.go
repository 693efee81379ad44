// Package pathenum is a Go implementation of PathEnum (Sun, Chen, He,
// Hooi — SIGMOD 2021): real-time hop-constrained s-t path enumeration.
//
// Given a directed graph G, two vertices s and t and a hop constraint k,
// PathEnum enumerates every simple path from s to t with at most k edges.
// For each query it builds a light-weight query-dependent index from the
// distances of every vertex to s and t, then either runs a depth-first
// search directly on the index or splits the query at a cost-optimized cut
// position and joins the two halves, choosing between the two with a
// two-phase cardinality estimator.
//
// Basic usage:
//
//	g, err := pathenum.NewGraph(4, []pathenum.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}, {From: 2, To: 3}})
//	...
//	res, err := pathenum.Enumerate(g, pathenum.Query{S: 0, T: 3, K: 3}, pathenum.Options{
//		Emit: func(p []pathenum.VertexID) bool { fmt.Println(p); return true },
//	})
//
// The streaming-first surface delivers paths incrementally instead of
// buffering or calling back: a Request bundles the query with its
// constraints and per-request options, and Stream / Engine.Stream return
// a Go 1.23 range-over-func iterator whose first paths arrive while
// enumeration is still running:
//
//	for path, err := range eng.Stream(ctx, pathenum.Request{S: 0, T: 3, K: 3}) {
//		...
//	}
//
// Enumerate, Paths, Count and the Engine's Execute methods remain as
// documented wrappers over the same executor spine.
//
// Query batches should run through the Engine: ExecuteAllContext fans
// queries out independently across a worker pool, and ExecuteBatch
// answers duplicate queries once and runs the rest in endpoint order on
// one captured graph view, so queries sharing a source or target share
// that side's BFS frontier through the engine's cache, filled
// single-flight; Engine.StreamBatch is its streaming variant, flushing
// per-query results as they settle. On
// mutating graphs the engine owns the write path: Engine.Insert applies
// edges to an engine-owned Dynamic, publishes snapshots amortized by
// EngineConfig.SnapshotEvery and keeps derived structures (frontier
// cache, distance oracle) epoch-consistent — streaming while updating is
// a first-class, version-enforced scenario.
//
// The package also implements the paper's constraint extensions (edge
// predicates, accumulative values, label-sequence automata), dynamic-graph
// workflows, every baseline from the paper's evaluation and a benchmark
// harness that regenerates each of its tables and figures; see DESIGN.md
// and EXPERIMENTS.md.
package pathenum

import (
	"context"
	"io"

	"pathenum/internal/automaton"
	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// Re-exported graph types. Vertices are dense int32 ids in [0, n).
type (
	// Graph is an immutable directed graph in CSR form.
	Graph = graph.Graph
	// Edge is a directed edge From -> To.
	Edge = graph.Edge
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Dynamic is an insertion-only dynamic graph wrapper; every
	// successful Insert bumps its epoch and snapshots carry the version.
	Dynamic = graph.Dynamic
	// GraphVersion is a graph's (lineage, epoch) identity; derived
	// structures (frontiers, oracles) are validated against it.
	GraphVersion = graph.Version
	// Versioned is the epoch/version surface shared by Graph and Dynamic.
	Versioned = graph.Versioned
)

// Version-enforcement errors, matched with errors.Is.
var (
	// ErrStaleEpoch reports a frontier or oracle built on an earlier
	// epoch of a mutating graph: rebuild it (or refresh the engine with
	// UpdateGraph) instead of trusting stale distance labels.
	ErrStaleEpoch = graph.ErrStaleEpoch
	// ErrGraphMismatch reports a frontier or oracle built on an
	// unrelated graph.
	ErrGraphMismatch = graph.ErrGraphMismatch
)

// Re-exported query types.
type (
	// Query is a HcPE query q(s,t,k).
	Query = core.Query
	// Options configures one query execution.
	Options = core.Options
	// Result reports the outcome of one query execution.
	Result = core.Result
	// Method selects the enumeration algorithm.
	Method = core.Method
	// Counters carries the enumeration cost metrics.
	Counters = core.Counters
	// RunControl bounds a low-level enumeration run.
	RunControl = core.RunControl
	// Plan records the optimizer's decision.
	Plan = core.Plan
)

// Re-exported constraint types (Appendix E extensions).
type (
	// Constraints bundles the optional query extensions.
	Constraints = core.Constraints
	// EdgePredicate filters edges.
	EdgePredicate = core.EdgePredicate
	// PredicateToken is the caller-declared identity of an EdgePredicate,
	// required for frontier sharing and caching (see core.PredicateToken).
	PredicateToken = core.PredicateToken
	// Accumulator is an accumulative-value constraint.
	Accumulator = core.Accumulator
	// SequenceConstraint is a label-sequence (automaton) constraint.
	SequenceConstraint = core.SequenceConstraint
	// DFA is the constraint automaton.
	DFA = automaton.DFA
	// Label is an edge action label.
	Label = automaton.Label
	// State is an automaton state.
	State = automaton.State
)

// Enumeration methods.
const (
	// Auto lets the cost-based optimizer choose (the full PathEnum).
	Auto = core.MethodAuto
	// DFS forces the index depth-first search (IDX-DFS).
	DFS = core.MethodDFS
	// Join forces the index join (IDX-JOIN).
	Join = core.MethodJoin
)

// DefaultTau is the preliminary-estimate threshold of the optimizer.
const DefaultTau = core.DefaultTau

// PredicateNone is the PredicateToken of the nil predicate.
const PredicateNone = core.PredicateNone

// NewGraph builds a graph with n vertices from an edge list. Self-loops
// are dropped and duplicate edges collapsed.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.NewGraph(n, edges) }

// LoadGraph reads an edge-list graph file (SNAP-style "<from> <to>" lines;
// '#'/'%' comments) with vertex ids remapped to a dense range.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes g to path in edge-list format.
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// ReadGraph parses an edge list from r; the second result maps dense ids
// back to the original ids.
func ReadGraph(r io.Reader) (*Graph, []int64, error) { return graph.ReadEdgeList(r) }

// WriteGraph writes g to w in edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// NewDynamic wraps a base graph for incremental edge insertion.
func NewDynamic(base *Graph) *Dynamic { return graph.NewDynamic(base) }

// Enumerate executes q on g: index construction, plan selection and
// enumeration. Paths stream through opts.Emit; the returned Result carries
// counts, the chosen plan, per-phase timings and index statistics.
func Enumerate(g *Graph, q Query, opts Options) (*Result, error) {
	return core.Run(g, q, opts)
}

// EnumerateContext is Enumerate observing ctx: cancelling the context (or
// hitting its deadline) stops the enumeration early and the Result reports
// Completed == false. The check is amortized over expansion events, so a
// heavy query returns promptly after cancellation without paying a per-node
// polling cost. Repeated queries against one graph should prefer
// Engine.ExecuteWith, which adds session buffer reuse on top.
func EnumerateContext(ctx context.Context, g *Graph, q Query, opts Options) (*Result, error) {
	return core.RunContext(ctx, g, q, opts)
}

// Count returns |P(s,t,k,G)| using the full optimizer.
func Count(g *Graph, q Query) (uint64, error) { return core.Count(g, q) }

// Paths materializes all result paths — a collecting consumer of the path
// stream (see Stream). The limit argument caps the number collected
// (0 = unlimited); result sets grow exponentially with k, so prefer
// Stream (incremental delivery) or Enumerate with an Emit callback for
// heavy queries.
func Paths(g *Graph, q Query, limit uint64) ([][]VertexID, error) {
	req := NewRequest(q)
	req.Limit = limit
	var out [][]VertexID
	for p, err := range Stream(context.Background(), g, req) {
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// EnumerateConstrained executes q under the Appendix-E constraint
// extensions with the constrained index DFS.
func EnumerateConstrained(g *Graph, q Query, cons Constraints, ctl RunControl) (*Result, error) {
	return core.RunConstrained(g, q, cons, ctl)
}

// NewDFA creates a constraint automaton with the given state and label
// counts and start state.
func NewDFA(numStates, numLabels int, start State) (*DFA, error) {
	return automaton.New(numStates, numLabels, start)
}

// ExactSequenceDFA builds a DFA accepting exactly the given label sequence.
func ExactSequenceDFA(numLabels int, seq []Label) (*DFA, error) {
	return automaton.ExactSequence(numLabels, seq)
}

// AtLeastCountDFA builds a DFA accepting sequences with at least m
// occurrences of label.
func AtLeastCountDFA(numLabels int, label Label, m int) (*DFA, error) {
	return automaton.AtLeastCount(numLabels, label, m)
}
