// Benchmarks regenerating every table and figure of the paper's evaluation
// (one BenchmarkTableN / BenchmarkFigN per experiment; Fig10 covers Figure
// 11 and Fig13 covers Figures 14/15, exactly as in the paper's shared
// plots), plus micro-benchmarks of the individual techniques and ablation
// benches for the design choices called out in DESIGN.md.
//
// The experiment benches run the same harness as cmd/benchpath at a scale
// chosen so a single iteration stays in the hundreds of milliseconds; use
// cmd/benchpath for full-size runs.
package pathenum_test

import (
	"context"
	"testing"
	"time"

	"pathenum"
	"pathenum/internal/baseline"
	"pathenum/internal/bench"
	"pathenum/internal/core"
	"pathenum/internal/gen"
	"pathenum/internal/workload"
)

// benchConfig is the scaled-down experiment configuration for testing.B.
func benchConfig() bench.Config {
	return bench.Config{
		Scale:     0.15,
		Queries:   10,
		K:         5,
		KRange:    []int{3, 4, 5},
		TimeLimit: 300 * time.Millisecond,
		ResponseK: 1000,
		Datasets:  []string{"ep", "gg"},
		Seed:      42,
	}
}

func runExperiment[T any](b *testing.B, fn func(bench.Config) (T, error)) {
	b.Helper()
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Overall(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Table3Result, error) { return bench.Table3(c) })
}

func BenchmarkTable4TimeDistribution(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Table4Result, error) { return bench.Table4(c) })
}

func BenchmarkTable5OutlierQueries(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Table5Result, error) { return bench.Table5(c) })
}

func BenchmarkTable6ResultCounts(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Table6Result, error) { return bench.Table6(c) })
}

func BenchmarkTable7Memory(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Table7Result, error) { return bench.Table7(c) })
}

func BenchmarkFig6DetailedMetrics(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig6Result, error) { return bench.Fig6(c) })
}

func BenchmarkFig7Breakdown(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig7Result, error) { return bench.Fig7(c) })
}

func BenchmarkFig8DynamicLatency(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig8Result, error) {
		c.Queries = 5
		c.Datasets = []string{"gg"}
		return bench.Fig8(c)
	})
}

func BenchmarkFig9Spectrum(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig9Result, error) { return bench.Fig9(c) })
}

func BenchmarkFig10Regression(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig10Result, error) { return bench.Fig10(c) })
}

func BenchmarkFig12Scalability(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig12Result, error) {
		// tm is the scalability graph; shrink it for testing.B.
		c.Scale = 0.02
		c.Datasets = []string{"tm"}
		c.KRange = []int{3, 4, 5}
		return bench.Fig12(c)
	})
}

func BenchmarkFig13VaryK(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.VaryKResult, error) { return bench.VaryK(c) })
}

func BenchmarkFig16CDF(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig16Result, error) { return bench.Fig16(c) })
}

func BenchmarkFig17Techniques(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig17Result, error) { return bench.Fig17(c) })
}

func BenchmarkFig18Cardinality(b *testing.B) {
	runExperiment(b, func(c bench.Config) (*bench.Fig18Result, error) { return bench.Fig18(c) })
}

// --- Micro-benchmarks of the individual techniques -----------------------

// benchGraphAndQuery builds a standard heavy workload: an ep-like social
// graph and one high-degree query pair.
func benchGraphAndQuery(b *testing.B, k int) (*pathenum.Graph, core.Query) {
	b.Helper()
	d, err := gen.Lookup("ep")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Scale(0.25).Build()
	qs, err := workload.Generate(g, workload.Options{Setting: workload.HighHigh, Count: 1, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	return g, core.Query{S: qs[0].S, T: qs[0].T, K: k}
}

func BenchmarkIndexBuild(b *testing.B) {
	g, q := benchGraphAndQuery(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildIndex(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreliminaryEstimate(b *testing.B) {
	g, q := benchGraphAndQuery(b, 6)
	ix, err := core.BuildIndex(g, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PreliminaryEstimate(ix)
	}
}

func BenchmarkFullEstimate(b *testing.B) {
	g, q := benchGraphAndQuery(b, 6)
	ix, err := core.BuildIndex(g, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.FullEstimate(ix)
	}
}

func BenchmarkEnumerateDFS(b *testing.B) {
	g, q := benchGraphAndQuery(b, 4)
	ix, err := core.BuildIndex(g, q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ctr core.Counters
		core.EnumerateDFS(ix, core.RunControl{}, &ctr)
	}
}

func BenchmarkEnumerateJoin(b *testing.B) {
	g, q := benchGraphAndQuery(b, 4)
	ix, err := core.BuildIndex(g, q)
	if err != nil {
		b.Fatal(err)
	}
	est := core.FullEstimate(ix)
	if est.Cut == 0 {
		b.Skip("no interior cut")
	}
	// Resolve the build side from the estimate already in hand so the
	// timed loop measures the join, not a per-iteration estimator DP.
	side := est.BuildSideAt(est.Cut)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ctr core.Counters
		if _, err := core.EnumerateJoinSide(ix, est.Cut, side, core.RunControl{}, &ctr, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationAlgorithms compares the full algorithm set on one heavy
// query, the per-query view behind Table 3.
func BenchmarkAblationAlgorithms(b *testing.B) {
	g, q := benchGraphAndQuery(b, 4)
	algos := map[string]func() (uint64, error){
		"IDX-DFS": func() (uint64, error) {
			ix, err := core.BuildIndex(g, q)
			if err != nil {
				return 0, err
			}
			var ctr core.Counters
			core.EnumerateDFS(ix, core.RunControl{}, &ctr)
			return ctr.Results, nil
		},
		"PathEnum": func() (uint64, error) {
			res, err := core.Run(g, q, core.Options{})
			if err != nil {
				return 0, err
			}
			return res.Counters.Results, nil
		},
		"BC-DFS": func() (uint64, error) {
			a := &baseline.BCDFS{}
			if err := a.Prepare(g, q); err != nil {
				return 0, err
			}
			var ctr core.Counters
			if _, err := a.Enumerate(core.RunControl{}, &ctr); err != nil {
				return 0, err
			}
			return ctr.Results, nil
		},
		"DFS-BASE": func() (uint64, error) {
			a := &baseline.GenericDFS{}
			if err := a.Prepare(g, q); err != nil {
				return 0, err
			}
			var ctr core.Counters
			if _, err := a.Enumerate(core.RunControl{}, &ctr); err != nil {
				return 0, err
			}
			return ctr.Results, nil
		},
	}
	for name, fn := range algos {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTau studies the optimizer threshold: tau=0 always pays
// for the full estimator, huge tau never does (DESIGN.md §5 ablation).
func BenchmarkAblationTau(b *testing.B) {
	g, q := benchGraphAndQuery(b, 5)
	for _, tc := range []struct {
		name string
		tau  float64
	}{
		{"tau=1", 1},
		{"tau=default", core.DefaultTau},
		{"tau=1e18", 1e18},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(g, q, core.Options{Tau: tc.tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCutPosition sweeps the join cut, the choice Algorithm 5
// optimizes.
func BenchmarkAblationCutPosition(b *testing.B) {
	g, q := benchGraphAndQuery(b, 4)
	ix, err := core.BuildIndex(g, q)
	if err != nil {
		b.Fatal(err)
	}
	est := core.FullEstimate(ix) // resolve sides outside the timed loops
	for cut := 1; cut < q.K; cut++ {
		side := est.BuildSideAt(cut)
		b.Run(string(rune('0'+cut)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var ctr core.Counters
				if _, err := core.EnumerateJoinSide(ix, cut, side, core.RunControl{}, &ctr, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStopperOverhead quantifies the cancellation-check cost on one
// fixed heavy enumeration. The unbounded run carries a nil ShouldStop hook
// (no polling at all); the timeout and context runs pay the amortized
// ctx.Err/time.Now check every ~1024 expansion events — the delta between
// the three is the whole cost of the cancellation story.
func BenchmarkStopperOverhead(b *testing.B) {
	g, q := benchGraphAndQuery(b, 4)
	b.Run("unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, q, core.Options{Method: core.MethodDFS}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("timeout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Run(g, q, core.Options{Method: core.MethodDFS, Timeout: time.Hour}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("context", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := core.RunContext(ctx, g, q, core.Options{Method: core.MethodDFS}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI measures the end-to-end public entry point.
func BenchmarkPublicAPI(b *testing.B) {
	g, q := benchGraphAndQuery(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pathenum.Enumerate(g, q, pathenum.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
