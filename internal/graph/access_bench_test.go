package graph_test

import (
	"math/rand"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// The three access shapes the adjacency layout is judged by, on the
// benchmark's largest graph (tm: 120 k vertices, 2.4 M edges). DESIGN.md §7
// records them per chunk width beside BenchmarkInsertPublish.

func tmGraph(b *testing.B) *graph.Graph {
	b.Helper()
	d, err := gen.Lookup("tm")
	if err != nil {
		b.Fatal(err)
	}
	return d.Build()
}

// BenchmarkGraphScan is the sequential sweep of every out-list: the
// benchmark's scanRate noise guard. No query or build path does this.
func BenchmarkGraphScan(b *testing.B) {
	g := tmGraph(b)
	n := graph.VertexID(g.NumVertices())
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := graph.VertexID(0); v < n; v++ {
			for _, w := range g.OutNeighbors(v) {
				sink += int64(w)
			}
		}
	}
	if sink < 0 {
		b.Fatal("vertex ids are non-negative")
	}
}

// BenchmarkGraphExpand is BFS-shaped access: 64 k vertices in random order,
// out-list and in-list of each read in full.
func BenchmarkGraphExpand(b *testing.B) {
	g := tmGraph(b)
	rng := rand.New(rand.NewSource(1))
	order := make([]graph.VertexID, 64<<10)
	for i := range order {
		order[i] = graph.VertexID(rng.Intn(g.NumVertices()))
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range order {
			for _, w := range g.OutNeighbors(v) {
				sink += int64(w)
			}
			for _, w := range g.InNeighbors(v) {
				sink += int64(w)
			}
		}
	}
	if sink < 0 {
		b.Fatal("vertex ids are non-negative")
	}
}

// BenchmarkNewGraph rebuilds tm from its edge list, in sorted order (a
// graph read back from a file it was saved to) and in random order (a
// generator's output).
func BenchmarkNewGraph(b *testing.B) {
	g := tmGraph(b)
	sorted := g.Edges()
	shuffled := append([]graph.Edge(nil), sorted...)
	rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, order := range []struct {
		name  string
		edges []graph.Edge
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(order.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := graph.NewGraph(g.NumVertices(), order.edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
