package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pathenum/internal/graph"
	"pathenum/internal/shard"
)

func TestRunDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ep.txt")
	if _, err := run("ep", 0.05, "", 0, 0, 0, 1, out); err != nil {
		t.Fatal(err)
	}
	g, err := graph.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatalf("generated graph is empty: %v", g)
	}
}

func TestRunFamilies(t *testing.T) {
	for _, family := range []string{"er", "ba", "power", "layered", "grid"} {
		out := filepath.Join(t.TempDir(), family+".txt")
		if _, err := run("", 1, family, 20, 4, 3, 7, out); err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		g, err := graph.LoadFile(out)
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", family)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		fn   func() error
	}{
		{"no output", func() error { _, err := run("ep", 1, "", 0, 0, 0, 1, ""); return err }},
		{"no source", func() error { _, err := run("", 1, "", 10, 4, 2, 1, filepath.Join(dir, "x.txt")); return err }},
		{"bad dataset", func() error { _, err := run("nope", 1, "", 0, 0, 0, 1, filepath.Join(dir, "x.txt")); return err }},
		{"bad family", func() error { _, err := run("", 1, "nope", 10, 4, 2, 1, filepath.Join(dir, "x.txt")); return err }},
		{"unwritable", func() error { _, err := run("ep", 0.05, "", 0, 0, 0, 1, "/nonexistent-dir/x.txt"); return err }},
	}
	for _, tc := range cases {
		if err := tc.fn(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestRunBatch: the -batch mode writes a parseable "s t k" query set with
// shared endpoints over the generated graph.
func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	gOut := filepath.Join(dir, "g.txt")
	qOut := filepath.Join(dir, "q.txt")
	g, err := run("", 1, "ba", 300, 4, 0, 11, gOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := runBatch(g, 32, 5, 6, 0.2, 11, qOut); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(qOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := graph.VertexID(g.NumVertices())
	srcCount := make(map[graph.VertexID]int)
	tgtCount := make(map[graph.VertexID]int)
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s, tt graph.VertexID
		var k int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %d", &s, &tt, &k); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if s < 0 || s >= n || tt < 0 || tt >= n || s == tt || k != 5 {
			t.Fatalf("invalid batch query %q", sc.Text())
		}
		srcCount[s]++
		tgtCount[tt]++
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 32 {
		t.Fatalf("got %d batch queries, want 32", lines)
	}
	shared := 0
	for _, c := range srcCount {
		if c >= 2 {
			shared++
		}
	}
	for _, c := range tgtCount {
		if c >= 2 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("batch has no shared endpoints to plan for")
	}
}

func TestRunBatchErrors(t *testing.T) {
	dir := t.TempDir()
	g, err := run("", 1, "ba", 100, 4, 0, 3, filepath.Join(dir, "g.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runBatch(g, 8, 5, 4, 0, 3, ""); err == nil {
		t.Error("missing -batchout: expected error")
	}
	if err := runBatch(g, 8, 0, 4, 0, 3, filepath.Join(dir, "q.txt")); err == nil {
		t.Error("k=0: expected error")
	}
	if err := runBatch(g, 8, 5, 4, 0, 3, "/nonexistent-dir/q.txt"); err == nil {
		t.Error("unwritable: expected error")
	}
}

func TestRunPartition(t *testing.T) {
	dir := t.TempDir()
	g, err := run("", 1, "ba", 800, 5, 0, 7, filepath.Join(dir, "g.txt"))
	if err != nil {
		t.Fatal(err)
	}
	qfile := filepath.Join(dir, "q.txt")
	if err := runPartition(g, 32, 5, 4, 0.25, 7, qfile); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(qfile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	owner := shard.HashOwner(4)
	lines, cross := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s, tt, k int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %d", &s, &tt, &k); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if k != 5 || s == tt {
			t.Fatalf("bad query line %q", sc.Text())
		}
		if owner(graph.VertexID(s)) != owner(graph.VertexID(tt)) {
			cross++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 32 {
		t.Fatalf("got %d partitioned queries, want 32", lines)
	}
	if cross != 8 {
		t.Fatalf("got %d cross-shard queries, want 8 (25%% of 32)", cross)
	}
	if err := runPartition(g, 8, 5, 0, 0.5, 7, qfile); err == nil {
		t.Error("shards=0: expected error")
	}
	if err := runPartition(g, 8, 5, 2, 0.5, 7, ""); err == nil {
		t.Error("missing -batchout: expected error")
	}
}
