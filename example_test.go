package pathenum_test

import (
	"context"
	"fmt"
	"log"

	"pathenum"
)

// The examples run on a small diamond graph: 0 -> {1,2} -> 3, plus 3 -> 0.
func diamondGraph() *pathenum.Graph {
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 0},
	})
	if err != nil {
		log.Fatal(err)
	}
	return g
}

func ExampleEnumerate() {
	g := diamondGraph()
	res, err := pathenum.Enumerate(g, pathenum.Query{S: 0, T: 3, K: 3}, pathenum.Options{
		Emit: func(p []pathenum.VertexID) bool {
			fmt.Println(p)
			return true
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count:", res.Counters.Results)
	// Output:
	// [0 1 3]
	// [0 2 3]
	// count: 2
}

func ExampleCount() {
	g := diamondGraph()
	n, err := pathenum.Count(g, pathenum.Query{S: 0, T: 3, K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n)
	// Output: 2
}

func ExamplePaths() {
	g := diamondGraph()
	paths, err := pathenum.Paths(g, pathenum.Query{S: 0, T: 3, K: 3}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range paths {
		fmt.Println(p)
	}
	// Output:
	// [0 1 3]
	// [0 2 3]
}

func ExampleCyclesThroughEdge() {
	g := diamondGraph()
	n, err := pathenum.CountCyclesThroughEdge(g, 3, 0, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cycles through 3->0:", n)
	// Output: cycles through 3->0: 2
}

func ExampleEnumerateConstrained() {
	g := diamondGraph()
	// Only paths avoiding the edge (0,1).
	res, err := pathenum.EnumerateConstrained(g,
		pathenum.Query{S: 0, T: 3, K: 3},
		pathenum.Constraints{
			Predicate: func(u, v pathenum.VertexID) bool { return !(u == 0 && v == 1) },
		},
		pathenum.RunControl{Emit: func(p []pathenum.VertexID) bool {
			fmt.Println(p)
			return true
		}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count:", res.Counters.Results)
	// Output:
	// [0 2 3]
	// count: 1
}

func ExampleEngine() {
	g := diamondGraph()
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	counts, err := engine.CountAll([]pathenum.Query{
		{S: 0, T: 3, K: 3},
		{S: 3, T: 1, K: 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(counts)
	// Output: [2 1]
}

// Engine.Stream delivers paths incrementally: the loop body runs while
// enumeration is suspended, so the first paths of a heavy query arrive
// long before the run completes. OnResult receives the final summary.
func ExampleEngine_Stream() {
	g := diamondGraph()
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	req := pathenum.Request{S: 0, T: 3, K: 3}
	req.OnResult = func(res *pathenum.Result) { fmt.Println("count:", res.Counters.Results) }
	for path, err := range engine.Stream(context.Background(), req) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(path)
	}
	// Output:
	// [0 1 3]
	// [0 2 3]
	// count: 2
}

// A join-planned stream delivers tuple-at-a-time: the smaller half of the
// cut is materialized into hash buckets, the other half is probed lazily,
// and every joined path is validated and yielded immediately — the first
// path arrives after one half-side build instead of a full
// materialize-then-probe pass. Forcing Method Join shows the wiring; the
// optimizer picks the join on its own when the estimated walk count makes
// it cheaper, and the stream contract is identical either way.
func ExampleEngine_Stream_joinPlanned() {
	g := diamondGraph()
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	req := pathenum.Request{S: 0, T: 3, K: 3}
	req.Method = pathenum.Join
	req.OnResult = func(res *pathenum.Result) {
		fmt.Println(res.Plan.Method, "cut", res.Plan.Cut, "build tuples:", res.JoinStats.BuildTuples)
	}
	for path, err := range engine.Stream(context.Background(), req) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(path)
	}
	// Output:
	// [0 1 3]
	// [0 2 3]
	// IDX-JOIN cut 2 build tuples: 2
}

// Engine.Insert is the engine-owned write path: the edge is applied to an
// engine-owned dynamic graph, a fresh snapshot is published (amortized by
// EngineConfig.SnapshotEvery) and the graph epoch advances — queries and
// streams immediately see the new edge, while cached structures from
// earlier epochs are invalidated instead of trusted.
func ExampleEngine_Insert() {
	g := diamondGraph()
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	q := pathenum.Query{S: 0, T: 3, K: 3}
	before, _ := engine.Execute(q)
	if _, err := engine.Insert(1, 2); err != nil { // adds the path 0-1-2-3
		log.Fatal(err)
	}
	after, _ := engine.Execute(q)
	fmt.Println(before.Counters.Results, "->", after.Counters.Results, "epoch", engine.Epoch())
	// Output: 2 -> 3 epoch 1
}
