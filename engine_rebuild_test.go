package pathenum

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pathenum/internal/gen"
)

// TestInsertRebuildDegradedWindow pins the background-rebuild contract
// end to end: a publishing insert installs the snapshot immediately and
// leaves for the rebuild worker; queries inside the degraded window run
// unpruned but produce exactly the path set of the post-rebuild (and of
// a plain uncached) engine.
func TestInsertRebuildDegradedWindow(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 4, 101)
	e, err := NewEngine(g, EngineConfig{Workers: 2, OracleLandmarks: 8, CacheAdmitDegree: 1})
	if err != nil {
		t.Fatal(err)
	}
	// NewEngine scheduled the initial build; reach steady state first.
	if err := e.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Oracle() == nil {
		t.Fatal("initial background build did not install an oracle")
	}
	if lag := e.OracleLag(); lag != 0 {
		t.Fatalf("steady-state oracle lag = %v, want 0", lag)
	}

	added, err := e.Insert(0, 1999)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("probe edge already present; pick another")
	}
	// The publish must not have blocked on the rebuild: the serving
	// snapshot is fresh while the oracle is still the worker's problem.
	if e.Epoch() != 1 {
		t.Fatalf("epoch = %d immediately after insert, want 1", e.Epoch())
	}
	if e.Oracle() != nil {
		t.Fatal("oracle present immediately after publish — did the insert rebuild inline?")
	}
	if lag := e.OracleLag(); lag <= 0 {
		t.Fatalf("degraded window reports lag %v, want > 0", lag)
	}

	queries := []Query{
		{S: 0, T: 1999, K: 3}, {S: 0, T: 7, K: 4},
		{S: 1, T: 9, K: 4}, {S: 3, T: 11, K: 4},
	}
	degraded := collectBatchPaths(t, e, queries)

	if err := e.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Oracle() == nil {
		t.Fatal("rebuild never landed")
	}
	if lag := e.OracleLag(); lag != 0 {
		t.Fatalf("post-rebuild oracle lag = %v, want 0", lag)
	}
	rebuilt := collectBatchPaths(t, e, queries)

	plain, err := NewEngine(e.Graph(), EngineConfig{Workers: 2, FrontierCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := collectBatchPaths(t, plain, queries)
	if len(want) == 0 {
		t.Fatal("workload produced no paths; test is vacuous")
	}
	for name, got := range map[string][]string{"degraded": degraded, "rebuilt": rebuilt} {
		if len(got) != len(want) {
			t.Fatalf("%s path count %d != plain %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s path[%d] = %q, want %q", name, i, got[i], want[i])
			}
		}
	}
}

// TestInsertRebuildCoalesces: a burst of publishing inserts must not
// queue one rebuild each — the worker coalesces to the newest snapshot
// and WaitOracle lands on an oracle for the serving epoch.
func TestInsertRebuildCoalesces(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 103)
	e, err := NewEngine(g, EngineConfig{Workers: 2, OracleLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for to := VertexID(1); to <= 40; to++ {
		if _, err := e.Insert(0, to); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
	oracle := e.Oracle()
	if oracle == nil {
		t.Fatal("no oracle after the burst settled")
	}
	// The installed oracle serves the newest epoch: a pruned query runs
	// without ErrStaleEpoch and matches an unpruned run.
	q := Query{S: 0, T: 9, K: 4}
	res, err := e.ExecuteWith(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Enumerate(e.Graph(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want.Counters.Results {
		t.Fatalf("post-burst count %d != fresh %d", res.Counters.Results, want.Counters.Results)
	}
}

// TestInsertRebuildWaitCancel: WaitOracle respects its context while a
// rebuild is outstanding.
func TestInsertRebuildWaitCancel(t *testing.T) {
	g := gen.BarabasiAlbert(3000, 4, 107)
	e, err := NewEngine(g, EngineConfig{OracleLandmarks: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.WaitOracle(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitOracle with cancelled ctx = %v, want context.Canceled", err)
	}
	// An unconstrained wait still succeeds afterwards.
	if err := e.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestStreamWhileInsertRebuild is the Insert-vs-stream race with the
// background rebuild worker live (run under -race in CI): readers stream
// while a writer publishes inserts that each schedule a rebuild. Results
// inside any degraded window must be indistinguishable — every path
// well-formed, no stale-epoch leaks — and the post-quiesce state matches
// a fresh enumeration.
func TestStreamWhileInsertRebuild(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 83)
	e, err := NewEngine(g, EngineConfig{Workers: 4, OracleLandmarks: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{S: 0, T: 7, K: 4}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var wg sync.WaitGroup
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(19))
		for i := 0; i < 150; i++ {
			select {
			case <-stop:
				return
			default:
			}
			from := VertexID(rng.Intn(200))
			to := VertexID(rng.Intn(200))
			if _, err := e.Insert(from, to); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				req := NewRequest(q)
				if r%2 == 1 {
					req.Buffer = 4
				}
				for p, serr := range e.Stream(context.Background(), req) {
					if serr != nil {
						if errors.Is(serr, ErrStaleEpoch) {
							t.Errorf("reader %d: stale epoch leaked during rebuild window: %v", r, serr)
						} else {
							t.Errorf("reader %d: %v", r, serr)
						}
						return
					}
					if len(p) < 2 || p[0] != q.S || p[len(p)-1] != q.T {
						t.Errorf("reader %d: malformed path %v", r, p)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	<-writerDone
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitOracle(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteWith(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Enumerate(e.Graph(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != want.Counters.Results {
		t.Fatalf("post-quiesce count %d != fresh %d", res.Counters.Results, want.Counters.Results)
	}
}

// BenchmarkInsertPublish measures the publishing-insert critical path.
// Two acceptance points: with background rebuilds (OracleLandmarks > 0)
// the per-insert latency must track the no-oracle baseline, not the
// inline-rebuild one — oracle construction is off the write path — and the
// no-oracle latency must not move between the two graph sizes, which take
// the same insert stream: a publish costs the chunks it touches, not |E|.
func BenchmarkInsertPublish(b *testing.B) {
	const span = 5000 // both sizes insert among the first 5000 vertices
	bench := func(b *testing.B, n int, cfg EngineConfig, inline bool) {
		g := gen.BarabasiAlbert(n, 4, 211)
		e, err := NewEngine(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if cfg.OracleLandmarks > 0 {
			if err := e.WaitOracle(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(7))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				from := VertexID(rng.Intn(span))
				to := VertexID(rng.Intn(span))
				added, err := e.Insert(from, to)
				if err != nil {
					b.Fatal(err)
				}
				if added {
					break
				}
			}
			if inline {
				oracle, err := BuildOracle(e.Graph(), 8)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.SetOracle(oracle); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		// Drain the worker outside the timer so one run's backlog cannot
		// leak into the next sub-benchmark's measurements.
		if cfg.OracleLandmarks > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := e.WaitOracle(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"n5k", 5000}, {"n50k", 50000}} {
		b.Run("no-oracle/"+size.name, func(b *testing.B) {
			bench(b, size.n, EngineConfig{}, false)
		})
		b.Run("rebuild-async/"+size.name, func(b *testing.B) {
			bench(b, size.n, EngineConfig{OracleLandmarks: 8}, false)
		})
		b.Run("rebuild-inline/"+size.name, func(b *testing.B) {
			bench(b, size.n, EngineConfig{}, true)
		})
	}
}
