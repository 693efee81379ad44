// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§7) on the synthetic dataset registry:
// per-query-set runs with time limits, the paper's metrics (query time,
// throughput, response time, 99.9% latency, CDFs, per-phase breakdowns,
// memory), and text renderers for the reports that
// `go run ./cmd/benchpath all` prints. DESIGN.md describes what they measure.
package bench

import (
	"time"

	"pathenum/internal/baseline"
	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// Algo is the uniform two-phase algorithm interface: per-query
// preprocessing (index construction / BFS / plan selection) followed by
// enumeration. It matches the query time breakdown of Figure 7.
type Algo interface {
	Name() string
	Prepare(g *graph.Graph, q core.Query) error
	Enumerate(ctl core.RunControl, ctr *core.Counters) (bool, error)
}

// ExtraStats is implemented by algorithms that expose index/materialization
// statistics from their last run (Table 7, Figure 10).
type ExtraStats interface {
	LastStats() Stats
}

// Stats carries optional per-query statistics.
type Stats struct {
	IndexEdges    int64
	IndexVertices int
	IndexBytes    int64
	PartialBytes  int64
	BFSTime       time.Duration // distance-labeling share of Prepare
	OptimizeTime  time.Duration // estimator/plan share of Prepare
}

// IDXDFS runs Algorithm 4 on the light-weight index.
type IDXDFS struct {
	ix    *core.Index
	stats Stats
}

// Name implements Algo.
func (a *IDXDFS) Name() string { return "IDX-DFS" }

// Prepare builds the per-query index.
func (a *IDXDFS) Prepare(g *graph.Graph, q core.Query) error {
	ix, bfsTime, err := buildTimedIndex(g, q)
	if err != nil {
		return err
	}
	a.ix = ix
	a.stats = Stats{
		IndexEdges:    ix.Edges(),
		IndexVertices: ix.NumIndexed(),
		IndexBytes:    ix.MemoryBytes(),
		BFSTime:       bfsTime,
	}
	return nil
}

// Enumerate implements Algo.
func (a *IDXDFS) Enumerate(ctl core.RunControl, ctr *core.Counters) (bool, error) {
	return core.EnumerateDFS(a.ix, ctl, ctr), nil
}

// LastStats implements ExtraStats.
func (a *IDXDFS) LastStats() Stats { return a.stats }

// IDXJOIN runs Algorithm 6 with the cost-optimized cut position.
type IDXJOIN struct {
	ix    *core.Index
	cut   int
	side  core.BuildSide
	stats Stats
}

// Name implements Algo.
func (a *IDXJOIN) Name() string { return "IDX-JOIN" }

// Prepare builds the index and selects the cut with the full estimator.
func (a *IDXJOIN) Prepare(g *graph.Graph, q core.Query) error {
	ix, bfsTime, err := buildTimedIndex(g, q)
	if err != nil {
		return err
	}
	optStart := time.Now()
	est := core.FullEstimate(ix)
	a.ix, a.cut, a.side = ix, est.Cut, est.BuildSideAt(est.Cut)
	a.stats = Stats{
		IndexEdges:    ix.Edges(),
		IndexVertices: ix.NumIndexed(),
		IndexBytes:    ix.MemoryBytes(),
		BFSTime:       bfsTime,
		OptimizeTime:  time.Since(optStart),
	}
	return nil
}

// Enumerate implements Algo, falling back to the DFS when no interior cut
// exists (k < 2).
func (a *IDXJOIN) Enumerate(ctl core.RunControl, ctr *core.Counters) (bool, error) {
	if a.cut == 0 {
		return core.EnumerateDFS(a.ix, ctl, ctr), nil
	}
	var js core.JoinStats
	done, err := core.EnumerateJoinSide(a.ix, a.cut, a.side, ctl, ctr, &js)
	a.stats.PartialBytes = js.PartialBytes
	return done, err
}

// LastStats implements ExtraStats.
func (a *IDXJOIN) LastStats() Stats { return a.stats }

// PathEnum is the full system: index + two-phase optimizer.
type PathEnum struct {
	ix    *core.Index
	plan  core.Plan
	tau   float64
	stats Stats
}

// NewPathEnum creates the full system with the given tau threshold
// (0 = core.DefaultTau).
func NewPathEnum(tau float64) *PathEnum { return &PathEnum{tau: tau} }

// Name implements Algo.
func (a *PathEnum) Name() string { return "PathEnum" }

// Prepare builds the index and runs the two-phase optimizer.
func (a *PathEnum) Prepare(g *graph.Graph, q core.Query) error {
	ix, bfsTime, err := buildTimedIndex(g, q)
	if err != nil {
		return err
	}
	optStart := time.Now()
	a.plan = core.ChoosePlan(ix, a.tau)
	a.ix = ix
	a.stats = Stats{
		IndexEdges:    ix.Edges(),
		IndexVertices: ix.NumIndexed(),
		IndexBytes:    ix.MemoryBytes(),
		BFSTime:       bfsTime,
		OptimizeTime:  time.Since(optStart),
	}
	return nil
}

// Enumerate implements Algo.
func (a *PathEnum) Enumerate(ctl core.RunControl, ctr *core.Counters) (bool, error) {
	if a.plan.Method == core.MethodJoin {
		var js core.JoinStats
		done, err := core.EnumerateJoinSide(a.ix, a.plan.Cut, a.plan.Build, ctl, ctr, &js)
		a.stats.PartialBytes = js.PartialBytes
		return done, err
	}
	return core.EnumerateDFS(a.ix, ctl, ctr), nil
}

// LastStats implements ExtraStats.
func (a *PathEnum) LastStats() Stats { return a.stats }

// buildTimedIndex builds the index and reports the BFS share of the build.
func buildTimedIndex(g *graph.Graph, q core.Query) (*core.Index, time.Duration, error) {
	ix, timings, err := core.BuildIndexTimed(g, q)
	if err != nil {
		return nil, 0, err
	}
	return ix, timings.BFS, nil
}

// Baselines returns the paper's competitor set in Table-3 order.
func Baselines() []Algo {
	return []Algo{&baseline.BCDFS{}, &baseline.BCJoin{}}
}

// AllAlgos returns the five Table-3 algorithms in column order.
func AllAlgos() []Algo {
	return []Algo{&baseline.BCDFS{}, &baseline.BCJoin{}, &IDXDFS{}, &IDXJOIN{}, NewPathEnum(0)}
}

// ExtendedAlgos additionally includes the dominated baselines (§7.1 notes
// Peng et al. already showed BC-* beats them by orders of magnitude).
func ExtendedAlgos() []Algo {
	return append(AllAlgos(), &baseline.GenericDFS{}, &baseline.TDFS{}, &baseline.Yen{})
}
