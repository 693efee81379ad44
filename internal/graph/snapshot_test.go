package graph

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// chunkBoundarySizes are vertex counts around the chunk geometry: no chunk,
// one vertex, one short of / exactly / one past a full chunk, and several
// chunks with a ragged tail.
var chunkBoundarySizes = []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 7}

// edgeModel is the reference the chunked graph is compared against: a plain
// set of edges, turned into a graph by NewGraph from scratch.
type edgeModel map[Edge]struct{}

func (m edgeModel) graph(t testing.TB, n int) *Graph {
	t.Helper()
	edges := make([]Edge, 0, len(m))
	for e := range m {
		edges = append(edges, e)
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSameGraph checks every read accessor of got against want.
func requireSameGraph(t testing.TB, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("got |V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := VertexID(0); int(v) < want.NumVertices(); v++ {
		out, in := got.OutNeighbors(v), got.InNeighbors(v)
		if !slices.Equal(out, want.OutNeighbors(v)) {
			t.Fatalf("OutNeighbors(%d) = %v, want %v", v, out, want.OutNeighbors(v))
		}
		if !slices.Equal(in, want.InNeighbors(v)) {
			t.Fatalf("InNeighbors(%d) = %v, want %v", v, in, want.InNeighbors(v))
		}
		if !slices.IsSorted(out) || !slices.IsSorted(in) {
			t.Fatalf("neighbors of %d not sorted: out %v in %v", v, out, in)
		}
		if got.OutDegree(v) != len(out) || got.InDegree(v) != len(in) || got.Degree(v) != len(out)+len(in) {
			t.Fatalf("degrees of %d: out %d in %d total %d, lists have %d and %d",
				v, got.OutDegree(v), got.InDegree(v), got.Degree(v), len(out), len(in))
		}
		for _, w := range out {
			if !got.HasEdge(v, w) {
				t.Fatalf("HasEdge(%d,%d) = false for a listed edge", v, w)
			}
			// The reversed edge exercises the negative answer wherever the
			// graph does not happen to hold it too.
			if got.HasEdge(w, v) != want.HasEdge(w, v) {
				t.Fatalf("HasEdge(%d,%d) = %v, want %v", w, v, got.HasEdge(w, v), want.HasEdge(w, v))
			}
		}
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatal("Edges() differ")
	}
}

// snapshotProgram drives a Dynamic and the model through one random program
// of single and batched inserts — duplicates, self-loops, edges already in
// the base and out-of-range ids included — and checks every Insert verdict
// and every snapshot. It returns the snapshots taken, each with the model
// graph of its moment, so callers can check that later writes left them
// alone. prog is read five bytes per step: an opcode and two endpoints.
func snapshotProgram(t testing.TB, n int, base edgeModel, prog []byte) (snaps, wants []*Graph) {
	t.Helper()
	model := edgeModel{}
	for e := range base {
		model[e] = struct{}{}
	}
	d := NewDynamic(model.graph(t, n))
	check := func() {
		snap, want := d.Snapshot(), model.graph(t, n)
		if snap.Version() != d.Version() {
			t.Fatalf("snapshot version %v, dynamic at %v", snap.Version(), d.Version())
		}
		if d.NumEdges() != want.NumEdges() {
			t.Fatalf("Dynamic.NumEdges = %d, want %d", d.NumEdges(), want.NumEdges())
		}
		requireSameGraph(t, snap, want)
		snaps, wants = append(snaps, snap), append(wants, want)
	}
	check()
	var last, baseEdge Edge
	if edges := d.Snapshot().Edges(); len(edges) > 0 {
		baseEdge = edges[len(edges)/2]
	}
	// Ids run from -1 to n+1, so some inserts must be refused.
	id := func(hi, lo byte) VertexID { return VertexID((int(hi)<<8|int(lo))%(n+3) - 1) }
	for ; len(prog) >= 5; prog = prog[5:] {
		e := Edge{From: id(prog[1], prog[2]), To: id(prog[3], prog[4])}
		switch prog[0] % 8 {
		case 0:
			e = last // an exact repeat
		case 1:
			e.To = e.From // a self-loop
		case 2:
			e = baseEdge // an edge of the base (or the refused (0,0))
		}
		last = e
		epoch := d.Epoch()
		added, err := d.Insert(e.From, e.To)
		_, dup := model[e]
		inRange := e.From >= 0 && int(e.From) < n && e.To >= 0 && int(e.To) < n
		switch {
		case !inRange:
			if !errors.Is(err, ErrVertexRange) || added {
				t.Fatalf("Insert(%v) with n=%d = %v, %v, want ErrVertexRange", e, n, added, err)
			}
		case err != nil:
			t.Fatalf("Insert(%v): %v", e, err)
		case added != (!dup && e.From != e.To):
			t.Fatalf("Insert(%v) = %v with duplicate=%v", e, added, dup)
		}
		if added {
			model[e] = struct{}{}
			epoch++
		}
		if d.Epoch() != epoch {
			t.Fatalf("epoch %d after Insert(%v) = %v, want %d", d.Epoch(), e, added, epoch)
		}
		if inRange && !d.HasEdge(e.From, e.To) && e.From != e.To {
			t.Fatalf("Dynamic.HasEdge(%v) = false after Insert", e)
		}
		// Opcodes 4-7 leave the edge pending, so runs of them form batches
		// that one snapshot flushes together.
		if prog[0]%8 < 4 {
			check()
		}
	}
	check()
	return snaps, wants
}

func randomEdges(rng *rand.Rand, n, m int) edgeModel {
	edges := edgeModel{}
	for i := 0; i < m && n > 1; i++ {
		e := Edge{From: VertexID(rng.Intn(n)), To: VertexID(rng.Intn(n))}
		if e.From != e.To {
			edges[e] = struct{}{}
		}
	}
	return edges
}

// TestSnapshotChainDifferential: after any program of inserts, a chained
// snapshot is the graph NewGraph builds from the accumulated edge set, and
// every earlier snapshot still is the graph of its own moment.
func TestSnapshotChainDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range chunkBoundarySizes {
		for trial := 0; trial < 4; trial++ {
			prog := make([]byte, 5*60)
			rng.Read(prog)
			snaps, wants := snapshotProgram(t, n, randomEdges(rng, n, 2*n), prog)
			for i := range snaps {
				requireSameGraph(t, snaps[i], wants[i])
			}
		}
	}
}

// TestWithEdgesMergePositions pins the chunk merge where its bookkeeping
// can slip: several edges landing on one vertex (before, between and after
// its old targets), on the first and the last vertex of a chunk, in an empty
// chunk, and in two chunks at once.
func TestWithEdgesMergePositions(t *testing.T) {
	const n = 2*chunkSize + 5
	const last = chunkSize - 1
	base := edgeModel{
		{0, 10}: {}, {0, 20}: {}, {5, 7}: {}, {5, 9}: {}, {5, 30}: {},
		{last, 3}: {}, {last, chunkSize}: {}, {chunkSize, 1}: {},
	}
	cases := map[string][]Edge{
		"one vertex, before between and after": {{5, 1}, {5, 8}, {5, 10}, {5, 29}, {5, 31}, {5, n - 1}},
		"first vertex of the chunk":            {{0, 1}, {0, 15}, {0, 25}},
		"last vertex of the chunk":             {{last, 0}, {last, 4}, {last, n - 1}},
		"first and last together":              {{0, 15}, {last, 4}},
		"a vertex with no edges yet":           {{6, 5}, {6, 7}, {4, 0}},
		"empty chunk":                          {{2 * chunkSize, 0}, {2*chunkSize + 4, 1}, {2*chunkSize + 4, 2}},
		"two chunks and duplicates":            {{5, 8}, {5, 8}, {5, 7}, {chunkSize, 0}, {chunkSize, 2}, {chunkSize + 1, 5}},
		"every vertex of the chunk":            nil, // filled below
	}
	for v := VertexID(0); v < chunkSize; v++ {
		cases["every vertex of the chunk"] = append(cases["every vertex of the chunk"], Edge{v, 2 * chunkSize})
	}
	g := base.graph(t, n)
	for name, add := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := g.WithEdges(add)
			if err != nil {
				t.Fatal(err)
			}
			model := edgeModel{}
			for e := range base {
				model[e] = struct{}{}
			}
			for _, e := range add {
				model[e] = struct{}{}
			}
			requireSameGraph(t, got, model.graph(t, n))
			requireSameGraph(t, g, base.graph(t, n)) // the receiver is untouched
		})
	}
}

func FuzzSnapshotChain(f *testing.F) {
	f.Add(uint8(0), uint16(0), int64(1), []byte{3, 0, 1, 0, 1})
	f.Add(uint8(1), uint16(3), int64(2), []byte{3, 0, 1, 0, 1, 1, 0, 1, 0, 0})
	f.Add(uint8(3), uint16(900), int64(3), []byte{4, 0, 2, 0, 9, 5, 0, 2, 1, 4, 6, 3, 250, 0, 9, 3, 0, 7, 2, 0, 0, 0, 0, 0, 0, 2, 9, 9, 9, 9})
	f.Add(uint8(5), uint16(4000), int64(4), []byte{7, 4, 1, 8, 1, 7, 4, 1, 8, 2, 7, 4, 1, 0, 3, 3, 12, 9, 0, 4, 1, 5, 5, 5, 5, 4, 12, 9, 12, 9, 3, 12, 10, 0, 1})
	f.Fuzz(func(t *testing.T, size uint8, baseEdges uint16, seed int64, prog []byte) {
		n := chunkBoundarySizes[int(size)%len(chunkBoundarySizes)]
		if len(prog) > 5*200 {
			prog = prog[:5*200]
		}
		base := randomEdges(rand.New(rand.NewSource(seed)), n, int(baseEdges)%8192)
		snaps, wants := snapshotProgram(t, n, base, prog)
		// Persistence: no later step wrote to an earlier snapshot.
		for i := range snaps {
			requireSameGraph(t, snaps[i], wants[i])
		}
	})
}

// TestSnapshotPersistence: snapshots stay what they were under 100 later
// inserts, and Dynamics over a shared base — or over one another's
// snapshots — never see each other's edges.
func TestSnapshotPersistence(t *testing.T) {
	const n = 3*chunkSize + 7
	rng := rand.New(rand.NewSource(5))
	baseEdges := randomEdges(rng, n, 4*n)
	base := baseEdges.graph(t, n)
	baseWant := baseEdges.graph(t, n)

	type writer struct {
		d     *Dynamic
		model edgeModel
	}
	newWriter := func(from *Graph, edges edgeModel) *writer {
		w := &writer{d: NewDynamic(from), model: edgeModel{}}
		for e := range edges {
			w.model[e] = struct{}{}
		}
		return w
	}
	a, b := newWriter(base, baseEdges), newWriter(base, baseEdges)
	var snaps, wants []*Graph
	insert := func(w *writer) {
		e := Edge{From: VertexID(rng.Intn(n)), To: VertexID(rng.Intn(n))}
		if added, err := w.d.Insert(e.From, e.To); err != nil {
			t.Fatal(err)
		} else if added {
			w.model[e] = struct{}{}
		}
		snaps, wants = append(snaps, w.d.Snapshot()), append(wants, w.model.graph(t, n))
	}
	for i := 0; i < 20; i++ {
		insert(a)
		insert(b)
	}
	// A third writer forks off a's latest snapshot; a keeps writing.
	c := newWriter(a.d.Snapshot(), a.model)
	for i := 0; i < 100; i++ {
		insert(a)
		insert(b)
		insert(c)
	}
	requireSameGraph(t, base, baseWant)
	for i := range snaps {
		requireSameGraph(t, snaps[i], wants[i])
	}
}

// differingChunks counts the chunks of b that are not the very chunk of a:
// another offset array or another target array.
func differingChunks(a, b []adjChunk) int {
	diff := 0
	for i := range a {
		if a[i].off != b[i].off || unsafe.SliceData(a[i].tgt) != unsafe.SliceData(b[i].tgt) {
			diff++
		}
	}
	return diff
}

// TestSnapshotSharesUntouchedChunks: a publish rebuilds the chunks its edges
// land in — once per chunk, however many land there — and shares the rest.
func TestSnapshotSharesUntouchedChunks(t *testing.T) {
	const n = 100 * chunkSize
	rng := rand.New(rand.NewSource(9))
	g := randomEdges(rng, n, 4*n).graph(t, n)
	if len(g.out) != 100 || len(g.in) != 100 {
		t.Fatalf("chunk tables have %d and %d entries, want 100", len(g.out), len(g.in))
	}
	d := NewDynamic(g)
	s0 := d.Snapshot()
	if differingChunks(g.out, s0.out)+differingChunks(g.in, s0.in) != 0 {
		t.Fatal("a Dynamic's first snapshot must share every chunk with its base")
	}
	from, to := VertexID(7*chunkSize+3), VertexID(42*chunkSize+5)
	if added, err := d.Insert(from, to); err != nil || !added {
		t.Fatalf("Insert = %v, %v", added, err)
	}
	s1 := d.Snapshot()
	if do, di := differingChunks(s0.out, s1.out), differingChunks(s0.in, s1.in); do != 1 || di != 1 {
		t.Fatalf("one insert replaced %d out and %d in chunks, want 1 and 1", do, di)
	}
	if s1.out[7].off == s0.out[7].off || s1.in[42].off == s0.in[42].off {
		t.Fatal("the replaced chunks are not the ones the edge landed in")
	}

	// A 10 000-edge batch into one out-chunk: one rebuild of that chunk, so
	// the flush allocates a few chunks' worth, not 10 000 of them.
	batch := 0
	for batch < 10000 {
		added, err := d.Insert(from+VertexID(rng.Intn(chunkSize-3)), VertexID(rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		if added {
			batch++
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2 := d.Snapshot()
	runtime.ReadMemStats(&after)
	if do := differingChunks(s1.out, s2.out); do != 1 {
		t.Fatalf("a one-chunk batch replaced %d out chunks, want 1", do)
	}
	if s2.NumEdges() != s1.NumEdges()+10000 {
		t.Fatalf("batch published %d edges, want 10000", s2.NumEdges()-s1.NumEdges())
	}
	// Every in-chunk is rebuilt once too (the targets are spread over all of
	// them): the whole graph's in-lists plus the batch bound the flush.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*(s2.NumEdges()+int64(n))); got > limit {
		t.Fatalf("batched flush allocated %d bytes, want at most %d", got, limit)
	}
}

// TestSnapshotReadersWhilePublishing is for the race detector: readers
// sweep snapshot i while the writer publishes i+1 ... i+200 from it.
func TestSnapshotReadersWhilePublishing(t *testing.T) {
	const n = 4 * chunkSize
	rng := rand.New(rand.NewSource(3))
	d := NewDynamic(randomEdges(rng, n, 3*n).graph(t, n))
	snap := d.Snapshot()
	wantEdges := snap.NumEdges()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var out, in int64
				for v := VertexID(0); v < n; v++ {
					out += int64(len(snap.OutNeighbors(v)))
					in += int64(snap.InDegree(v))
				}
				if out != wantEdges || in != wantEdges {
					t.Errorf("sweep saw %d out and %d in entries, want %d", out, in, wantEdges)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := d.Insert(VertexID(rng.Intn(n)), VertexID(rng.Intn(n))); err != nil {
			t.Fatal(err)
		}
		d.Snapshot()
	}
	close(stop)
	readers.Wait()
}
