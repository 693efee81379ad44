package cache

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/gen"
	"pathenum/internal/graph"
	"pathenum/internal/mem"
)

func fwdFrontier(t *testing.T, g *graph.Graph, origin graph.VertexID, bound int) *core.Frontier {
	t.Helper()
	f, err := core.NewForwardFrontier(g, origin, bound, nil, core.PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGetPutHitMiss(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 1)
	c := New(4)
	key := Key{Origin: 3, Forward: true}

	if c.Get(key, 4, g.Version()) != nil {
		t.Fatal("empty cache must miss")
	}
	f := fwdFrontier(t, g, 3, 4)
	c.Put(f)
	if got := c.Get(key, 4, g.Version()); got != f {
		t.Fatal("expected the deposited frontier")
	}
	// bound >= k reuse: a smaller k is served, a larger k misses.
	if got := c.Get(key, 2, g.Version()); got != f {
		t.Fatal("k below the bound must hit")
	}
	if c.Get(key, 5, g.Version()) != nil {
		t.Fatal("k above the bound must miss")
	}
	// A wider labeling replaces the narrow one under the same key.
	wide := fwdFrontier(t, g, 3, 6)
	c.Put(wide)
	if got := c.Get(key, 5, g.Version()); got != wide {
		t.Fatal("expected the widened frontier")
	}
	// A narrower same-version deposit must not clobber the wide one.
	c.Put(f)
	if got := c.Get(key, 5, g.Version()); got != wide {
		t.Fatal("narrow re-deposit clobbered the wide frontier")
	}
	// Direction and predicate token are part of the key.
	if c.Get(Key{Origin: 3, Forward: false}, 2, g.Version()) != nil {
		t.Fatal("backward lookup must not see a forward frontier")
	}
	if c.Get(Key{Origin: 3, Forward: true, Pred: 9}, 2, g.Version()) != nil {
		t.Fatal("predicate lookup must not see an unfiltered frontier")
	}

	st := c.Stats()
	if st.Hits != 4 || st.Entries != 1 || st.Bytes != wide.MemoryBytes() {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLazyEpochInvalidation(t *testing.T) {
	d := graph.NewDynamic(gen.BarabasiAlbert(40, 2, 2))
	snap0 := d.Snapshot()
	c := New(4)
	c.Put(fwdFrontier(t, snap0, 1, 4))
	c.Put(fwdFrontier(t, snap0, 2, 4))

	if ok, err := d.Insert(1, 30); err != nil || !ok {
		// Edge may exist in the generated graph; find another.
		if ok2, err2 := d.Insert(1, 31); err2 != nil || !ok2 {
			t.Fatalf("could not insert a fresh edge: %v %v / %v %v", ok, err, ok2, err2)
		}
	}
	snap1 := d.Snapshot()

	// The bump costs nothing until touched: both entries still resident.
	if got := c.Len(); got != 2 {
		t.Fatalf("entries after epoch bump = %d, want 2 (lazy invalidation)", got)
	}
	// Touching one entry with the new version invalidates exactly it.
	if c.Get(Key{Origin: 1, Forward: true}, 4, snap1.Version()) != nil {
		t.Fatal("stale entry served")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 1 {
		t.Fatalf("stats after stale touch = %+v", st)
	}
	// The old version still hits the untouched entry (same-epoch readers
	// may drain while a writer advances).
	if c.Get(Key{Origin: 2, Forward: true}, 4, snap0.Version()) == nil {
		t.Fatal("same-version entry must still hit for old-version readers")
	}
	// Depositing the rebuilt frontier replaces the stale epoch.
	c.Put(fwdFrontier(t, snap1, 2, 4))
	if c.Get(Key{Origin: 2, Forward: true}, 4, snap1.Version()) == nil {
		t.Fatal("refreshed entry must hit")
	}
}

// TestPinnedOldReadersDoNotClobberNewEntries: an in-flight batch pinned
// to a pre-update graph view must neither delete nor overwrite entries
// already refreshed for the current epoch.
func TestPinnedOldReadersDoNotClobberNewEntries(t *testing.T) {
	d := graph.NewDynamic(gen.BarabasiAlbert(40, 2, 6))
	snap0 := d.Snapshot()
	stale := fwdFrontier(t, snap0, 5, 4)
	if ok, err := d.Insert(5, 35); err != nil || !ok {
		if ok2, err2 := d.Insert(5, 36); err2 != nil || !ok2 {
			t.Fatalf("could not insert a fresh edge: %v %v / %v %v", ok, err, ok2, err2)
		}
	}
	snap1 := d.Snapshot()
	fresh := fwdFrontier(t, snap1, 5, 4)

	c := New(4)
	c.Put(fresh)
	key := Key{Origin: 5, Forward: true}

	// A pinned epoch-0 reader misses the epoch-1 entry without removing it.
	if c.Get(key, 4, snap0.Version()) != nil {
		t.Fatal("old-epoch reader must not be served a newer frontier")
	}
	if st := c.Stats(); st.Invalidations != 0 || st.Entries != 1 {
		t.Fatalf("old-epoch reader removed the fresh entry: %+v", st)
	}
	// Its late deposit must not clobber the fresh entry either.
	c.Put(stale)
	if got := c.Get(key, 4, snap1.Version()); got != fresh {
		t.Fatal("stale deposit replaced the fresh entry")
	}
	// The reverse order still upgrades: a fresh deposit replaces a stale
	// entry.
	c2 := New(4)
	c2.Put(stale)
	c2.Put(fresh)
	if got := c2.Get(key, 4, snap1.Version()); got != fresh {
		t.Fatal("fresh deposit did not replace the stale entry")
	}
}

func TestCapacityEviction(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 3)
	c := New(2)
	c.Put(fwdFrontier(t, g, 0, 3))
	c.Put(fwdFrontier(t, g, 1, 3))
	// Touch origin 0 so origin 1 is the LRU victim.
	if c.Get(Key{Origin: 0, Forward: true}, 3, g.Version()) == nil {
		t.Fatal("expected hit")
	}
	c.Put(fwdFrontier(t, g, 2, 3))
	if c.Get(Key{Origin: 1, Forward: true}, 3, g.Version()) != nil {
		t.Fatal("LRU entry must have been evicted")
	}
	if c.Get(Key{Origin: 0, Forward: true}, 3, g.Version()) == nil {
		t.Fatal("recently used entry must survive eviction")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != 2*4*int64(g.NumVertices()) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

// TestConcurrentAccess hammers Get/Put/Stats from many goroutines; run
// under -race it pins the locking discipline.
func TestConcurrentAccess(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 4)
	c := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				origin := graph.VertexID((w*7 + i) % 16)
				key := Key{Origin: origin, Forward: true}
				if c.Get(key, 3, g.Version()) == nil {
					f, err := core.NewForwardFrontier(g, origin, 3, nil, core.PredicateNone)
					if err != nil {
						t.Error(err)
						return
					}
					c.Put(f)
				}
				_ = c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

// residentSum walks the LRU and totals the labeling bytes actually
// resident — the ground truth Stats.Bytes must track.
func residentSum(c *FrontierCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry).f.MemoryBytes()
	}
	return sum
}

func TestByteBoundEviction(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 5)
	per := int64(4 * g.NumVertices())
	// Room for two entries, generous entry capacity: bytes must evict.
	c := NewBudgeted(16, 2*per, nil)
	c.Put(fwdFrontier(t, g, 0, 3))
	c.Put(fwdFrontier(t, g, 1, 3))
	if !c.Put(fwdFrontier(t, g, 2, 3)) {
		t.Fatal("fitting deposit refused")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 2*per || st.Evictions != 1 {
		t.Fatalf("stats after byte eviction = %+v", st)
	}
	if c.Get(Key{Origin: 0, Forward: true}, 3, g.Version()) != nil {
		t.Fatal("LRU entry must have been evicted on bytes")
	}

	// A deposit larger than the whole bound is refused, cache untouched.
	big := gen.BarabasiAlbert(400, 2, 5)
	if c.Put(fwdFrontier(t, big, 9, 3)) {
		t.Fatal("oversize deposit admitted")
	}
	st2 := c.Stats()
	if st2.Rejected != 1 || st2.Bytes != 2*per || st2.Entries != 2 {
		t.Fatalf("stats after oversize refusal = %+v", st2)
	}
	if got := residentSum(c); got != st2.Bytes {
		t.Fatalf("resident %d != stats %d", got, st2.Bytes)
	}
}

// TestReplacementRespectsBound pins the fix for the in-place replacement
// branch: growing an entry (wider bound, or a bigger graph under the
// same key) must stay under the byte bound by evicting others, and be
// refused — entry kept — when eviction cannot make room.
func TestReplacementRespectsBound(t *testing.T) {
	small := gen.BarabasiAlbert(40, 2, 5)
	big := gen.BarabasiAlbert(200, 2, 5)
	perSmall := int64(4 * small.NumVertices())
	perBig := int64(4 * big.NumVertices())

	// Bound fits both small entries, or one big one alone — not both.
	c := NewBudgeted(16, perSmall+perBig-1, nil)
	c.Put(fwdFrontier(t, small, 0, 3))
	c.Put(fwdFrontier(t, small, 1, 3))
	// Same key (origin 1), unrelated lineage, much larger: replacement
	// grows the entry, so the other entry must be evicted to fit.
	if !c.Put(fwdFrontier(t, big, 1, 3)) {
		t.Fatal("growing replacement refused despite evictable room")
	}
	st := c.Stats()
	if st.Bytes > c.MaxBytes() {
		t.Fatalf("bytes %d exceed bound %d after replacement", st.Bytes, st.MaxBytes)
	}
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats after growing replacement = %+v", st)
	}
	if got := residentSum(c); got != st.Bytes {
		t.Fatalf("resident %d != stats %d", got, st.Bytes)
	}

	// A replacement that cannot fit even alone is refused and the
	// existing entry survives.
	c2 := NewBudgeted(16, perSmall, nil)
	c2.Put(fwdFrontier(t, small, 1, 3))
	if c2.Put(fwdFrontier(t, big, 1, 3)) {
		t.Fatal("unfittable replacement admitted")
	}
	st2 := c2.Stats()
	if st2.Rejected != 1 || st2.Entries != 1 || st2.Bytes != perSmall {
		t.Fatalf("stats after refused replacement = %+v", st2)
	}
	if c2.Get(Key{Origin: 1, Forward: true}, 3, small.Version()) == nil {
		t.Fatal("existing entry lost on refused replacement")
	}
}

// TestSharedBudgetChargeRelease wires the cache to an engine-wide ledger
// and checks every resident byte is charged to mem.ClassCache and given
// back on eviction, replacement shrink, and invalidation.
func TestSharedBudgetChargeRelease(t *testing.T) {
	d := graph.NewDynamic(gen.BarabasiAlbert(40, 2, 7))
	snap0 := d.Snapshot()
	per := snap0.NumVertices()
	b := mem.New(int64(3 * 4 * per))
	c := NewBudgeted(16, 0, b) // no local bound: the ledger is the bound

	c.Put(fwdFrontier(t, snap0, 0, 3))
	c.Put(fwdFrontier(t, snap0, 1, 3))
	c.Put(fwdFrontier(t, snap0, 2, 3))
	if got := b.ClassBytes(mem.ClassCache); got != c.Stats().Bytes {
		t.Fatalf("ledger %d != cache bytes %d", got, c.Stats().Bytes)
	}
	// The ledger is full: a fourth deposit evicts the cache's LRU entry.
	if !c.Put(fwdFrontier(t, snap0, 3, 3)) {
		t.Fatal("deposit refused despite evictable entries")
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("stats after ledger-driven eviction = %+v", st)
	}
	if b.Used() != st.Bytes {
		t.Fatalf("ledger used %d != cache bytes %d", b.Used(), st.Bytes)
	}

	// Starve the ledger from another class: the deposit fails even after
	// the cache drains itself trying to make room — residency yields to
	// the pressuring class and the ledger stays exact.
	b.Must(mem.ClassBuild, b.Limit())
	if c.Put(fwdFrontier(t, snap0, 9, 3)) {
		t.Fatal("deposit admitted with no ledger headroom")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || b.ClassBytes(mem.ClassCache) != 0 {
		t.Fatalf("starved refusal left residency: %+v ledger=%d", st, b.ClassBytes(mem.ClassCache))
	}
	b.Release(mem.ClassBuild, b.Limit())
	c.Put(fwdFrontier(t, snap0, 0, 3))
	c.Put(fwdFrontier(t, snap0, 1, 3))

	// Invalidation returns bytes too.
	if ok, err := d.Insert(0, 30); err != nil || !ok {
		if ok2, err2 := d.Insert(0, 31); err2 != nil || !ok2 {
			t.Fatalf("could not insert a fresh edge: %v %v / %v %v", ok, err, ok2, err2)
		}
	}
	snap1 := d.Snapshot()
	before := b.ClassBytes(mem.ClassCache)
	if c.Get(Key{Origin: 1, Forward: true}, 3, snap1.Version()) != nil {
		t.Fatal("stale entry served")
	}
	if got := b.ClassBytes(mem.ClassCache); got != before-int64(4*per) {
		t.Fatalf("invalidation did not release ledger bytes: %d -> %d", before, got)
	}
	if got := residentSum(c); got != b.ClassBytes(mem.ClassCache) {
		t.Fatalf("resident %d != ledger %d", got, b.ClassBytes(mem.ClassCache))
	}
}

// TestBytesInvariantRandomized is the byte-accounting property test:
// across randomized Put/Get interleavings — hits, misses, capacity and
// byte evictions, lazy invalidations, in-place replacements in both
// directions (grow and shrink), stale deposits, refusals — Stats.Bytes
// must equal the sum of MemoryBytes over the entries actually resident,
// never exceed the byte bound, and match the shared ledger.
func TestBytesInvariantRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	small := gen.BarabasiAlbert(30, 2, 11)
	big := gen.BarabasiAlbert(90, 2, 12)
	huge := gen.BarabasiAlbert(400, 2, 14) // over the byte bound alone: forces refusals
	d := graph.NewDynamic(gen.BarabasiAlbert(50, 2, 13))
	snaps := []*graph.Graph{d.Snapshot()}

	b := mem.New(int64(4 * 90 * 6))
	c := NewBudgeted(5, int64(4*90*4), b)

	graphs := func() *graph.Graph {
		switch rng.Intn(8) {
		case 0, 1:
			return small
		case 2, 3:
			return big
		case 4:
			return huge
		default:
			return snaps[rng.Intn(len(snaps))]
		}
	}
	check := func(op string, i int) {
		st := c.Stats()
		if got := residentSum(c); got != st.Bytes {
			t.Fatalf("op %d (%s): resident %d != Stats.Bytes %d", i, op, got, st.Bytes)
		}
		if st.MaxBytes > 0 && st.Bytes > st.MaxBytes {
			t.Fatalf("op %d (%s): bytes %d exceed bound %d", i, op, st.Bytes, st.MaxBytes)
		}
		if got := b.ClassBytes(mem.ClassCache); got != st.Bytes {
			t.Fatalf("op %d (%s): ledger %d != Stats.Bytes %d", i, op, got, st.Bytes)
		}
		if st.Entries > c.Capacity() {
			t.Fatalf("op %d (%s): %d entries over capacity %d", i, op, st.Entries, st.Capacity)
		}
	}
	for i := 0; i < 4000; i++ {
		g := graphs()
		origin := graph.VertexID(rng.Intn(12))
		k := 2 + rng.Intn(4)
		switch rng.Intn(5) {
		case 0, 1: // deposit (insert, replacement, or stale refusal)
			f, err := core.NewForwardFrontier(g, origin, k, nil, core.PredicateNone)
			if err != nil {
				t.Fatal(err)
			}
			c.Put(f)
			check("put", i)
		case 2, 3: // lookup (hit, miss, or lazy invalidation)
			c.Get(Key{Origin: origin, Forward: true}, k, g.Version())
			check("get", i)
		default: // advance the dynamic graph's epoch now and then
			if len(snaps) < 6 {
				from := graph.VertexID(rng.Intn(40))
				to := graph.VertexID(rng.Intn(40))
				if ok, err := d.Insert(from, to); err == nil && ok {
					snaps = append(snaps, d.Snapshot())
				}
			}
		}
	}
	if st := c.Stats(); st.Evictions == 0 || st.Invalidations == 0 || st.Rejected == 0 {
		t.Fatalf("property run did not exercise all paths: %+v", st)
	}
}

// TestConcurrentReplacementStats races Put-with-replacement (alternating
// lineages under one key force genuine in-place swaps with nonzero
// deltas) against Stats and Get readers; under -race it pins the locking
// around the replacement byte accounting.
func TestConcurrentReplacementStats(t *testing.T) {
	a := gen.BarabasiAlbert(40, 2, 21)
	bg := gen.BarabasiAlbert(120, 2, 22)
	b := mem.New(4 * 120 * 8)
	c := NewBudgeted(4, 4*120*4, b)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g := a
				if (w+i)%2 == 0 {
					g = bg
				}
				origin := graph.VertexID(i % 3)
				f, err := core.NewForwardFrontier(g, origin, 3, nil, core.PredicateNone)
				if err != nil {
					t.Error(err)
					return
				}
				c.Put(f)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				st := c.Stats()
				if st.MaxBytes > 0 && st.Bytes > st.MaxBytes {
					t.Errorf("bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
					return
				}
				c.Get(Key{Origin: graph.VertexID(i % 3), Forward: true}, 3, a.Version())
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if got := residentSum(c); got != st.Bytes {
		t.Fatalf("resident %d != Stats.Bytes %d after race", got, st.Bytes)
	}
	if got := b.ClassBytes(mem.ClassCache); got != st.Bytes {
		t.Fatalf("ledger %d != Stats.Bytes %d after race", got, st.Bytes)
	}
}

// TestFitsAgreesWithPut: Fits answers, before a frontier is built, what
// Put would answer after — the byte bound, and what the other classes
// leave of the shared budget once the cache's own entries are evicted.
func TestFitsAgreesWithPut(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 31)
	per := core.FrontierBytes(g.NumVertices())
	if f := fwdFrontier(t, g, 0, 3); f.MemoryBytes() != per {
		t.Fatalf("FrontierBytes %d != MemoryBytes %d", per, f.MemoryBytes())
	}
	if !New(4).Fits(per) {
		t.Fatal("an unbounded cache refused")
	}
	if c := NewBudgeted(4, per-1, nil); c.Fits(per) || c.Put(fwdFrontier(t, g, 0, 3)) {
		t.Fatal("a frontier larger than the byte bound fits")
	}

	b := mem.New(2 * per)
	c := NewBudgeted(4, 0, b)
	c.Put(fwdFrontier(t, g, 0, 3))
	c.Put(fwdFrontier(t, g, 1, 3))
	// The ledger is full of the cache's own entries: they can be evicted.
	if !c.Fits(per) || !c.Put(fwdFrontier(t, g, 2, 3)) {
		t.Fatal("evictable residency counted against the deposit")
	}
	// Another class leaves one byte less than a frontier needs.
	b.Must(mem.ClassScratch, b.Limit()-per+1)
	if c.Fits(per) {
		t.Fatal("fits despite the other classes leaving too little")
	}
	rejected := c.Stats().Rejected
	if c.Put(fwdFrontier(t, g, 3, 3)) || c.Stats().Rejected != rejected+1 {
		t.Fatal("Put accepted what Fits refused")
	}
}

// TestFrontierSingleFlight: eight goroutines miss the same (origin,
// forward) at once and exactly one build runs; the other seven wait for it
// and all eight get the one frontier, which is then resident.
func TestFrontierSingleFlight(t *testing.T) {
	g := gen.BarabasiAlbert(60, 3, 4)
	c := New(4)
	key := Key{Origin: 0, Forward: true}
	release := make(chan struct{})
	var builds atomic.Int32
	build := func() *core.Frontier {
		builds.Add(1)
		<-release
		return fwdFrontier(t, g, 0, 4)
	}
	const callers = 8
	got := make([]*core.Frontier, callers)
	built := make([]bool, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], built[i] = c.GetOrBuild(key, 4, g.Version(), build)
		}()
	}
	// Every caller has missed — one is building, seven are waiting —
	// before the build may finish.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Misses < callers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers reached the cache", c.Stats().Misses, callers)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds ran, want 1", n)
	}
	nBuilt := 0
	for i := range callers {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", i, got[i], got[0])
		}
		if built[i] {
			nBuilt++
		}
	}
	if nBuilt != 1 {
		t.Fatalf("%d callers report building, want 1", nBuilt)
	}
	if c.Get(key, 4, g.Version()) != got[0] {
		t.Fatal("the built frontier is not resident")
	}
}

// TestGetOrBuildHitSkipsBuild: a resident frontier serving k is returned
// without calling build, and counts as a hit.
func TestGetOrBuildHitSkipsBuild(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 1)
	c := New(4)
	f := fwdFrontier(t, g, 3, 5)
	c.Put(f)
	got, built := c.GetOrBuild(Key{Origin: 3, Forward: true}, 4, g.Version(), func() *core.Frontier {
		t.Fatal("build called on a hit")
		return nil
	})
	if got != f || built {
		t.Fatalf("GetOrBuild = %p, %v; want the resident %p, false", got, built, f)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want one hit", st)
	}
}

// TestGetOrBuildDeclinedBuild: a build returning nil deposits nothing and
// reports no build, so the next miss builds again.
func TestGetOrBuildDeclinedBuild(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 1)
	c := New(4)
	key := Key{Origin: 3, Forward: true}
	calls := 0
	declined := func() *core.Frontier { calls++; return nil }
	for range 2 {
		if got, built := c.GetOrBuild(key, 4, g.Version(), declined); got != nil || built {
			t.Fatalf("declined build returned %p, %v", got, built)
		}
	}
	if calls != 2 || c.Len() != 0 {
		t.Fatalf("calls %d, entries %d; want 2 and 0", calls, c.Len())
	}
}

// TestGetOrBuildIncompatibleFlightBuildsOwn: a miss that cannot use the
// build in progress — a larger k, or another graph version — does not wait
// for it but builds its own.
func TestGetOrBuildIncompatibleFlightBuildsOwn(t *testing.T) {
	d := graph.NewDynamic(gen.BarabasiAlbert(60, 3, 4))
	snap0 := d.Snapshot()
	if ok, err := d.Insert(0, 59); err != nil || !ok {
		t.Fatalf("insert: %v %v", ok, err)
	}
	snap1 := d.Snapshot()
	key := Key{Origin: 0, Forward: true}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{{"larger k", snap0, 5}, {"newer version", snap1, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(4)
			entered, release := make(chan struct{}), make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.GetOrBuild(key, 4, snap0.Version(), func() *core.Frontier {
					close(entered)
					<-release
					return fwdFrontier(t, snap0, 0, 4)
				})
			}()
			<-entered
			got, built := c.GetOrBuild(key, tc.k, tc.g.Version(), func() *core.Frontier {
				return fwdFrontier(t, tc.g, 0, tc.k)
			})
			close(release)
			<-done
			if !built || got == nil || got.Bound() != tc.k || got.GraphVersion() != tc.g.Version() {
				t.Fatalf("GetOrBuild = %v, %v; want its own bound-%d build at %v", got, built, tc.k, tc.g.Version())
			}
		})
	}
}

// TestGetOrBuildPanicReleasesWaiters: a build that panics still releases
// the callers waiting on it (with nil), and the key can be built again.
func TestGetOrBuildPanicReleasesWaiters(t *testing.T) {
	g := gen.BarabasiAlbert(40, 2, 1)
	c := New(4)
	key := Key{Origin: 3, Forward: true}
	entered, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		c.GetOrBuild(key, 4, g.Version(), func() *core.Frontier {
			close(entered)
			<-release
			panic("build failed")
		})
	}()
	<-entered
	waited := make(chan *core.Frontier)
	go func() {
		f, _ := c.GetOrBuild(key, 4, g.Version(), func() *core.Frontier {
			t.Error("waiter ran its own build")
			return nil
		})
		waited <- f
	}()
	for c.Stats().Misses < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case f := <-waited:
		if f != nil {
			t.Fatalf("waiter on a panicked build got %p, want nil", f)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter not released by the panicking build")
	}
	if got, built := c.GetOrBuild(key, 4, g.Version(), func() *core.Frontier { return fwdFrontier(t, g, 3, 4) }); got == nil || !built {
		t.Fatal("key not buildable after a panicked build")
	}
}
