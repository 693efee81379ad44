package workload

import (
	"slices"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

func TestGenerateBatchStructure(t *testing.T) {
	g := gen.BarabasiAlbert(300, 4, 13)
	queries, err := GenerateBatch(g, BatchOptions{Count: 48, K: 5, GroupSize: 6, DupFrac: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 48 {
		t.Fatalf("got %d queries, want 48", len(queries))
	}
	srcCount := make(map[graph.VertexID]int)
	tgtCount := make(map[graph.VertexID]int)
	dups := make(map[BatchQuery]int)
	for _, q := range queries {
		if q.S == q.T {
			t.Fatalf("degenerate query %+v", q)
		}
		if q.K != 5 {
			t.Fatalf("query %+v: k != 5", q)
		}
		srcCount[q.S]++
		tgtCount[q.T]++
		dups[q]++
	}
	// The batch must contain sharing worth planning for: at least one
	// endpoint hosting a cluster, and injected exact duplicates.
	maxShared := 0
	for _, c := range srcCount {
		if c > maxShared {
			maxShared = c
		}
	}
	for _, c := range tgtCount {
		if c > maxShared {
			maxShared = c
		}
	}
	if maxShared < 2 {
		t.Fatal("no shared-endpoint cluster generated")
	}
	duplicated := 0
	for _, c := range dups {
		duplicated += c - 1
	}
	if duplicated == 0 {
		t.Fatal("DupFrac=0.25 produced no duplicates")
	}
}

// TestGenerateBatchDupFracComposes: salting with duplicates keeps the
// fresh part of the batch — the same seed yields the same first queries —
// and every duplicate repeats one of them, so the salted batch touches
// no endpoint the fresh queries do not.
func TestGenerateBatchDupFracComposes(t *testing.T) {
	g := gen.BarabasiAlbert(400, 5, 17)
	plain, err := GenerateBatch(g, BatchOptions{Count: 64, K: 6, GroupSize: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	salted, err := GenerateBatch(g, BatchOptions{Count: 64, K: 6, GroupSize: 8, DupFrac: 0.25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const fresh = 48 // 64 - 0.25*64
	if len(salted) != 64 || !slices.Equal(salted[:fresh], plain[:fresh]) {
		t.Fatalf("salted batch of %d does not keep the %d fresh queries of the plain one", len(salted), fresh)
	}
	uniq := make(map[BatchQuery]bool)
	for _, q := range salted {
		uniq[q] = true
		if !slices.Contains(plain[:fresh], q) {
			t.Fatalf("salted query %+v is not one of the fresh queries", q)
		}
	}
	if len(uniq) >= 64 {
		t.Fatalf("DupFrac=0.25: %d unique of 64, expected duplicates", len(uniq))
	}
}

func TestGenerateBatchFeasible(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 29)
	queries, err := GenerateBatch(g, BatchOptions{Count: 24, K: 4, MaxDist: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b := newBoundedBFS(g)
	for _, q := range queries {
		if !b.within(q.S, q.T, 3) {
			t.Fatalf("query %+v: dist > MaxDist", q)
		}
	}
}

func TestGenerateBatchValidation(t *testing.T) {
	g := gen.BarabasiAlbert(50, 3, 1)
	cases := []BatchOptions{
		{Count: 0, K: 4},
		{Count: 8, K: 0},
		{Count: 8, K: 4, DupFrac: 1.5},
		{Count: 8, K: 4, SharedTargetFrac: 2},
	}
	for i, opts := range cases {
		if _, err := GenerateBatch(g, opts); err == nil {
			t.Errorf("case %d (%+v): expected error", i, opts)
		}
	}
	tiny := lineGraph(t, 1)
	if _, err := GenerateBatch(tiny, BatchOptions{Count: 4, K: 3}); err == nil {
		t.Error("tiny graph: expected error")
	}
}
