package pathenum

import (
	"context"
	"iter"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"pathenum/internal/baseline"
	"pathenum/internal/core"
	"pathenum/internal/gen"
)

// allocatedBy returns the bytes fn allocates, with the collector held off so
// that a cycle cannot empty the session pool in the middle of it.
func allocatedBy(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func mustInsert(t *testing.T, e *Engine, from, to VertexID) {
	t.Helper()
	if added, err := e.Insert(from, to); err != nil || !added {
		t.Fatalf("Insert(%d,%d) = %v, %v", from, to, added, err)
	}
}

// uniformEdges draws m random edges among the vertices [lo, hi).
func uniformEdges(rng *rand.Rand, lo, hi, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{From: VertexID(lo + rng.Intn(hi-lo)), To: VertexID(lo + rng.Intn(hi-lo))}
	}
	return edges
}

// TestPublishAllocIndependentOfGraphSize pins what a publishing insert
// costs by the bytes it allocates — deterministic where a timing is not:
// the cost does not grow with the inserts that came before it (every
// snapshot used to be rebuilt from the base plus all of them), and it does
// not grow with edges that live in other chunks of the graph (every
// snapshot used to be a copy of all of them; that ratio was about 10).
func TestPublishAllocIndependentOfGraphSize(t *testing.T) {
	// Inserts land in the first 2048 vertices — two adjacency chunks of
	// internal/graph; the bulk of the larger graph lies beyond them.
	const n, near = 32 * 1024, 2048
	rng := rand.New(rand.NewSource(21))
	small := append(uniformEdges(rng, 0, near, 4*near), uniformEdges(rng, near, n, 4*(n-near))...)
	large := append(small[:len(small):len(small)], uniformEdges(rng, near, n, 9*len(small))...)

	firstInsert := func(edges []Edge) (*Engine, uint64) {
		g, err := NewGraph(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return e, allocatedBy(func() { mustInsert(t, e, 5, 1500) })
	}
	e, first := firstInsert(small)
	_, firstLarge := firstInsert(large)
	if lo, hi := first-first/10, first+first/10; firstLarge < lo || firstLarge > hi {
		t.Fatalf("a publishing insert allocated %d bytes on the graph and %d on one with 10x the edges in other chunks, want them within 10%%",
			first, firstLarge)
	}

	var last uint64
	for i := 2; i <= 200; i++ {
		last = allocatedBy(func() { mustInsert(t, e, VertexID(5+i%7), VertexID(near-i)) })
	}
	if last > first+first/2 {
		t.Fatalf("the 200th publishing insert allocated %d bytes, the 1st %d: want at most 1.5x", last, first)
	}
	if got := e.Graph().NumEdges(); got <= int64(len(small))/2 || e.Epoch() != 200 {
		t.Fatalf("after 200 inserts: |E| = %d, epoch %d", got, e.Epoch())
	}
}

func brutePaths(g *Graph, q Query) [][]VertexID { return baseline.BrutePaths(g, q.S, q.T, q.K) }

func collect(t *testing.T, e *Engine, q Query) [][]VertexID {
	t.Helper()
	var paths [][]VertexID
	for p, err := range e.Stream(context.Background(), NewRequest(q)) {
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// TestInsertKeepsSessions: the session pool outlives a publish. The query
// after an insert reuses the warm session's |V|-sized scratch (it used to
// allocate and fill 20 bytes per vertex again), a session checked out
// before a publish finishes on the graph it captured and serves the new one
// afterwards, a graph of another size makes sessions reallocate, and the
// budget's scratch charge follows the serving graph.
func TestInsertKeepsSessions(t *testing.T) {
	t.Run("scratch survives", func(t *testing.T) {
		const n = 100_000
		g := gen.Cycle(n)
		e, err := NewEngine(g, EngineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{S: 10, T: 14, K: 6}
		if got := countVia(t, e, q); got != 1 {
			t.Fatalf("warm query found %d paths, want 1", got)
		}
		// The least of a few rounds: under the race detector sync.Pool drops
		// a quarter of what is put back, on purpose.
		least := ^uint64(0)
		for i := VertexID(0); i < 8; i++ {
			var got uint64
			bytes := allocatedBy(func() {
				mustInsert(t, e, 11+1000*i, 13+1000*i)
				got = countVia(t, e, q)
			})
			if got != 2 {
				t.Fatalf("query after the insert found %d paths, want 2", got)
			}
			least = min(least, bytes)
		}
		if least >= 64<<10 {
			t.Fatalf("insert + next query allocated %d bytes, want < 64 KB (session scratch is %d)",
				least, core.SessionScratchBytes(n))
		}
	})

	t.Run("checked out across a publish", func(t *testing.T) {
		g := gen.BarabasiAlbert(200, 3, 91)
		e, err := NewEngine(g, EngineConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{S: 0, T: 7, K: 4}
		before := brutePaths(g, q)
		if len(before) < 2 {
			t.Fatalf("need a query with several paths, got %d", len(before))
		}
		next, stop := iter.Pull2(e.Stream(context.Background(), NewRequest(q)))
		defer stop()
		first, err, ok := next()
		if !ok || err != nil {
			t.Fatalf("first pull: %v, %v", ok, err)
		}
		// The stream holds its session; publish a shortcut underneath it.
		mustInsert(t, e, q.S, q.T)
		streamed := [][]VertexID{first}
		for {
			p, err, ok := next()
			if !ok {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, p)
		}
		if !baseline.SamePathSet(streamed, before) {
			t.Fatalf("a stream that began before the publish delivered %d paths, the graph it captured has %d",
				len(streamed), len(before))
		}
		after := brutePaths(e.Graph(), q)
		if len(after) != len(before)+1 {
			t.Fatalf("brute force finds %d paths after the insert, want %d", len(after), len(before)+1)
		}
		if got := collect(t, e, q); !baseline.SamePathSet(got, after) {
			t.Fatalf("query after the publish found %d paths, brute force %d", len(got), len(after))
		}
	})

	t.Run("another vertex count", func(t *testing.T) {
		e, err := NewEngine(gen.BarabasiAlbert(50, 3, 5), EngineConfig{Workers: 2, MemoryBudgetBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		scratch := func() int64 { return 2 * core.SessionScratchBytes(e.Graph().NumVertices()) }
		for _, n := range []int{50, 400, 20, 400} {
			g := gen.BarabasiAlbert(n, 3, int64(n))
			if err := e.UpdateGraph(g); err != nil {
				t.Fatal(err)
			}
			q := Query{S: VertexID(n - 1), T: 0, K: 4}
			got, want := collect(t, e, q), brutePaths(g, q)
			if len(want) == 0 || !baseline.SamePathSet(got, want) {
				t.Fatalf("|V|=%d: %d paths, brute force %d (want some)", n, len(got), len(want))
			}
			if got := e.MemStats().ScratchBytes; got != scratch() {
				t.Fatalf("|V|=%d: scratch charge %d, want %d", n, got, scratch())
			}
			mustInsert(t, e, 0, VertexID(n-1))
			if got, want := collect(t, e, q), brutePaths(e.Graph(), q); !baseline.SamePathSet(got, want) {
				t.Fatalf("|V|=%d after an insert: %d paths, brute force %d", n, len(got), len(want))
			}
			if got := e.MemStats().ScratchBytes; got != scratch() {
				t.Fatalf("|V|=%d after an insert: scratch charge %d, want %d", n, got, scratch())
			}
		}
	})
}
