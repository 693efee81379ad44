package pathenum

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pathenum/internal/gen"
)

func engineGraph() *Graph {
	return gen.BarabasiAlbert(400, 5, 99)
}

func engineQueries(n int, seed int64, numVertices int) []Query {
	rng := rand.New(rand.NewSource(seed))
	var qs []Query
	for len(qs) < n {
		s := VertexID(rng.Intn(numVertices))
		t := VertexID(rng.Intn(numVertices))
		if s == t {
			continue
		}
		qs = append(qs, Query{S: s, T: t, K: 4})
	}
	return qs
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, EngineConfig{}); err == nil {
		t.Fatal("nil graph: expected error")
	}
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph() != g {
		t.Fatal("Graph accessor mismatch")
	}
}

func TestEngineExecute(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := engineQueries(1, 5, g.NumVertices())[0]
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Count(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want {
		t.Fatalf("engine count %d, direct %d", res.Counters.Results, want)
	}
}

// TestEngineMatchesSequential: concurrent execution returns exactly the
// sequential answers in input order.
func TestEngineMatchesSequential(t *testing.T) {
	g := engineGraph()
	queries := engineQueries(40, 17, g.NumVertices())
	e, err := NewEngine(g, EngineConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := e.CountAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want, err := Count(g, q)
		if err != nil {
			t.Fatal(err)
		}
		if counts[i] != want {
			t.Fatalf("query %d (%v): engine %d, sequential %d", i, q, counts[i], want)
		}
	}
}

func TestEngineWithOracle(t *testing.T) {
	g := engineGraph()
	oracle, err := BuildOracle(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	queries := engineQueries(20, 23, g.NumVertices())
	plain, err := NewEngine(g, EngineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEngine(g, EngineConfig{Workers: 4, Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plain.CountAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fast.CountAll(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: plain %d, oracle %d", i, a[i], b[i])
		}
	}
}

func TestEngineInvalidQuery(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{{S: 0, T: 1, K: 3}, {S: 2, T: 2, K: 3}}
	results, errs := e.ExecuteAll(queries)
	if errs[0] != nil || results[0] == nil {
		t.Fatal("valid query must succeed")
	}
	if errs[1] == nil {
		t.Fatal("invalid query must carry an error")
	}
	if _, err := e.CountAll(queries); err == nil {
		t.Fatal("CountAll must surface the error")
	}
}

// TestEngineExecuteWithMergesOptions: zero-valued per-call fields inherit
// the engine defaults; non-zero fields override them.
func TestEngineExecuteWithMergesOptions(t *testing.T) {
	g := gen.Layered(5, 3) // 125 paths 0 -> 1 within k=4
	q := Query{S: 0, T: 1, K: 4}
	e, err := NewEngine(g, EngineConfig{Options: Options{Limit: 2, Method: DFS}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// No overrides: the engine default limit applies.
	res, err := e.ExecuteWith(ctx, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 2 || res.Completed {
		t.Fatalf("default limit: %d results, completed=%v", res.Counters.Results, res.Completed)
	}
	if res.Plan.Method != DFS {
		t.Fatalf("default method not applied: %v", res.Plan.Method)
	}

	// Per-call limit overrides the default.
	res, err = e.ExecuteWith(ctx, q, Options{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 5 {
		t.Fatalf("override limit: %d results, want 5", res.Counters.Results)
	}

	// Per-call method overrides the default.
	res, err = e.ExecuteWith(ctx, q, Options{Method: Join, Limit: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Method != Join {
		t.Fatalf("override method not applied: %v", res.Plan.Method)
	}
	if res.Counters.Results != 125 || !res.Completed {
		t.Fatalf("override run: %d results, completed=%v", res.Counters.Results, res.Completed)
	}

	// Per-call emit overrides a nil default and sees every path.
	var seen int
	if _, err = e.ExecuteWith(ctx, q, Options{Limit: 200, Emit: func([]VertexID) bool {
		seen++
		return true
	}}); err != nil {
		t.Fatal(err)
	}
	if seen != 125 {
		t.Fatalf("emit override saw %d paths, want 125", seen)
	}
}

// TestEngineExecuteWithCancel: cancelling the call context stops a heavy
// query promptly with Completed=false.
func TestEngineExecuteWithCancel(t *testing.T) {
	g := gen.Layered(24, 5) // ~8M paths
	e, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted uint64
	res, err := e.ExecuteWith(ctx, Query{S: 0, T: 1, K: 6}, Options{
		Method: DFS,
		Emit: func([]VertexID) bool {
			emitted++
			if emitted == 50 {
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("cancelled query must not complete")
	}
	if res.Counters.Results > 1_000_000 {
		t.Fatalf("cancelled query ran too long: %d results", res.Counters.Results)
	}
}

// TestEngineExecuteWithRace exercises pooled sessions concurrently through
// the context entry point with mixed per-call options (run under -race in
// CI).
func TestEngineExecuteWithRace(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 16, Options: Options{Limit: 500}})
	if err != nil {
		t.Fatal(err)
	}
	queries := engineQueries(64, 41, g.NumVertices())
	var wg sync.WaitGroup
	errc := make(chan error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q Query) {
			defer wg.Done()
			opts := Options{}
			switch i % 3 {
			case 1:
				opts.Method = DFS
			case 2:
				opts.Limit = 10
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if _, err := e.ExecuteWith(ctx, q, opts); err != nil {
				errc <- err
			}
		}(i, q)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestEngineRace(t *testing.T) {
	// Exercised under -race in CI-style runs: many workers, many queries.
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := engineQueries(100, 31, g.NumVertices())
	if _, err := e.CountAll(queries); err != nil {
		t.Fatal(err)
	}
}
