package graph

import "testing"

// TestDynamicDuplicatesAcrossPendingAndPublished pins duplicate detection
// over the three places an edge can already be: the base, a published
// snapshot, and the pending batch — for a hub whose list keeps growing.
func TestDynamicDuplicatesAcrossPendingAndPublished(t *testing.T) {
	const n = 64
	d := NewDynamic(mustGraph(t, n, []Edge{{0, 1}}))
	for to := VertexID(2); to < 40; to++ {
		added, err := d.Insert(0, to)
		if err != nil || !added {
			t.Fatalf("Insert(0,%d) = %v, %v", to, added, err)
		}
		// Every third edge is published before the duplicates are offered,
		// the others are still pending.
		if to%3 == 0 {
			d.Snapshot()
		}
		for dup := VertexID(1); dup <= to; dup++ {
			if added, err := d.Insert(0, dup); err != nil || added {
				t.Fatalf("duplicate Insert(0,%d) = %v, %v", dup, added, err)
			}
		}
	}
	if !d.HasEdge(0, 1) || !d.HasEdge(0, 39) || d.HasEdge(0, 40) {
		t.Fatal("HasEdge wrong across pending and published edges")
	}
	if got := len(d.OutNeighbors(0)); got != 39 || d.NumEdges() != 39 || d.Epoch() != 38 {
		t.Fatalf("out-degree %d, |E| %d, epoch %d, want 39, 39, 38", got, d.NumEdges(), d.Epoch())
	}
}

// TestDynamicWarmNeighborsAllocFree: the first neighbor read after an
// insert publishes it; every later one is a read of the snapshot.
func TestDynamicWarmNeighborsAllocFree(t *testing.T) {
	d := NewDynamic(mustGraph(t, 8, []Edge{{0, 1}, {0, 2}, {3, 0}}))
	if _, err := d.Insert(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(4, 0); err != nil {
		t.Fatal(err)
	}
	if out := d.OutNeighbors(0); len(out) != 3 {
		t.Fatalf("OutNeighbors(0) = %v, want 3 entries", out)
	}
	if allocs := testing.AllocsPerRun(50, func() { d.OutNeighbors(0); d.InNeighbors(0) }); allocs != 0 {
		t.Fatalf("warm neighbor reads allocate %v times per run, want 0", allocs)
	}
	if in := d.InNeighbors(0); len(in) != 2 || in[0] != 3 || in[1] != 4 {
		t.Fatalf("InNeighbors(0) = %v, want [3 4]", in)
	}
}

// BenchmarkDynamicInsertHub measures hub-targeted insert streams between
// publishes: duplicate detection is one map probe and one binary search,
// whatever the length of the pending batch.
func BenchmarkDynamicInsertHub(b *testing.B) {
	const n = 1 << 16
	base, err := NewGraph(n, []Edge{{0, 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	d := NewDynamic(base)
	for i := 0; i < b.N; i++ {
		to := VertexID(2 + i%(n-2))
		if _, err := d.Insert(0, to); err != nil {
			b.Fatal(err)
		}
	}
}
