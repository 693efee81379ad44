package bench

import (
	"strings"
	"testing"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/gen"
	"pathenum/internal/workload"
)

// tinyConfig keeps every experiment below a second.
func tinyConfig() Config {
	return Config{
		Scale:     0.05,
		Queries:   6,
		K:         4,
		KRange:    []int{3, 4},
		TimeLimit: 250 * time.Millisecond,
		ResponseK: 50,
		Datasets:  []string{"ep", "gg"},
		Seed:      7,
	}
}

func TestRunOneBasic(t *testing.T) {
	g := gen.BarabasiAlbert(200, 5, 3)
	qs, err := workload.Generate(g, workload.Options{Setting: workload.HighHigh, Count: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range AllAlgos() {
		rec, err := RunOne(algo, g, core.Query{S: qs[0].S, T: qs[0].T, K: 4}, RunConfig{K: 4, TimeLimit: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if rec.TimedOut {
			t.Fatalf("%s: tiny query timed out", algo.Name())
		}
		if rec.TotalTime() <= 0 {
			t.Fatalf("%s: non-positive total time", algo.Name())
		}
		if rec.ResponseTime <= 0 {
			t.Fatalf("%s: non-positive response time", algo.Name())
		}
	}
}

// TestAlgosAgreeOnCounts: all five harness algorithms return identical
// result counts per query.
func TestAlgosAgreeOnCounts(t *testing.T) {
	g := gen.BarabasiAlbert(300, 5, 17)
	qs, err := workload.Generate(g, workload.Options{Setting: workload.HighHigh, Count: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{K: 4, TimeLimit: 5 * time.Second}
	for _, wq := range qs {
		q := core.Query{S: wq.S, T: wq.T, K: 4}
		var want uint64
		for i, algo := range AllAlgos() {
			rec, err := RunOne(algo, g, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = rec.Results
			} else if rec.Results != want {
				t.Fatalf("%s: %d results, want %d (query %v)", algo.Name(), rec.Results, want, q)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	recs := []Record{
		{PrepareTime: time.Millisecond, EnumTime: time.Millisecond, Results: 100, ResponseTime: time.Millisecond},
		{PrepareTime: 2 * time.Millisecond, EnumTime: 2 * time.Millisecond, Results: 300, TimedOut: true, ResponseTime: 2 * time.Millisecond},
	}
	agg := Summarize(recs)
	if agg.Queries != 2 {
		t.Fatalf("Queries = %d", agg.Queries)
	}
	if agg.MeanQueryTimeMs != 3 {
		t.Fatalf("MeanQueryTimeMs = %f, want 3", agg.MeanQueryTimeMs)
	}
	if agg.TimeoutFraction != 0.5 {
		t.Fatalf("TimeoutFraction = %f", agg.TimeoutFraction)
	}
	if agg.TotalResults != 400 || agg.MaxResults != 300 || agg.MeanResults != 200 {
		t.Fatalf("results aggregation wrong: %+v", agg)
	}
	if Summarize(nil).Queries != 0 {
		t.Fatal("empty summarize must be zero")
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.999, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(ds, c.p); got != c.want {
			t.Errorf("Percentile(%.3f) = %d, want %d", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile must be 0")
	}
}

func TestCDFMonotone(t *testing.T) {
	recs := []Record{
		{EnumTime: time.Millisecond},
		{EnumTime: 10 * time.Millisecond},
		{EnumTime: 100 * time.Millisecond},
	}
	bounds := []time.Duration{time.Millisecond, 10 * time.Millisecond, time.Second}
	cdf := CDF(recs, bounds)
	prev := 0.0
	for i, f := range cdf {
		if f < prev {
			t.Fatalf("CDF not monotone at %d: %v", i, cdf)
		}
		prev = f
	}
	if cdf[len(cdf)-1] != 1.0 {
		t.Fatalf("CDF must reach 1: %v", cdf)
	}
}

func TestLinearRegression(t *testing.T) {
	// y = 2 + 3x exactly.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{2, 5, 8, 11}
	a, b := LinearRegression(xs, ys)
	if a < 1.99 || a > 2.01 || b < 2.99 || b > 3.01 {
		t.Fatalf("fit = (%f, %f), want (2, 3)", a, b)
	}
	if a, b := LinearRegression(nil, nil); a != 0 || b != 0 {
		t.Fatal("empty regression must be zero")
	}
	// Degenerate x values.
	if _, b := LinearRegression([]float64{1, 1}, []float64{1, 2}); b != 0 {
		t.Fatal("degenerate regression slope must be 0")
	}
}

func TestTable3Small(t *testing.T) {
	res, err := Table3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) == 0 {
		t.Fatal("no datasets produced queries")
	}
	if len(res.Algos) != 5 {
		t.Fatalf("algos = %v", res.Algos)
	}
	out := res.Render()
	for _, want := range []string{"Table 3", "IDX-DFS", "PathEnum", "query time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Small(t *testing.T) {
	res, err := Table4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Table 4") {
		t.Fatalf("render:\n%s", out)
	}
	// Fractions must be within [0,1].
	for _, d := range res.Datasets {
		for algo, perK := range res.Fast[d] {
			for k, f := range perK {
				if f < 0 || f > 1 {
					t.Fatalf("%s/%s/k=%d: fast fraction %f", d, algo, k, f)
				}
			}
		}
	}
}

func TestTable5Small(t *testing.T) {
	res, err := Table5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Table 5") {
		t.Fatal("render missing header")
	}
	for algo, n := range res.ShortCount {
		if n+res.LongCount[algo] == 0 {
			t.Fatalf("%s: no queries recorded", algo)
		}
	}
}

func TestTable6Small(t *testing.T) {
	res, err := Table6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Table 6") {
		t.Fatal("render missing header")
	}
	// Result counts must not decrease with k (more budget, more paths).
	for _, d := range res.Datasets {
		if res.Avg[d][4]+1e-9 < res.Avg[d][3] {
			t.Fatalf("%s: avg results decreased with k: %v", d, res.Avg[d])
		}
	}
}

func TestTable7Small(t *testing.T) {
	res, err := Table7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Table 7") {
		t.Fatal("render missing header")
	}
	for _, d := range res.Datasets {
		for _, k := range res.KRange {
			if res.IndexMB[d][k] <= 0 {
				t.Fatalf("%s k=%d: index memory must be positive", d, k)
			}
		}
	}
}

func TestFig6Small(t *testing.T) {
	res, err := Fig6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 6") {
		t.Fatal("render missing header")
	}
	// The headline claim: IDX-DFS accesses fewer edges than BC-DFS.
	for _, d := range res.Datasets {
		for _, k := range res.KRange {
			bc := res.Edges[d]["BC-DFS"][k]
			idx := res.Edges[d]["IDX-DFS"][k]
			if idx > bc {
				t.Fatalf("%s k=%d: IDX-DFS scanned %f edges > BC-DFS %f", d, k, idx, bc)
			}
		}
	}
}

func TestFig7Small(t *testing.T) {
	res, err := Fig7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 7") {
		t.Fatal("render missing header")
	}
}

func TestFig8Small(t *testing.T) {
	cfg := tinyConfig()
	cfg.Queries = 4
	cfg.Datasets = []string{"gg"}
	res, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Fatal("render missing header")
	}
	if res.Updates == 0 {
		t.Fatal("no updates executed")
	}
}

func TestFig9Small(t *testing.T) {
	res, err := Fig9(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "PathEnum") {
		t.Fatalf("render:\n%s", out)
	}
	if len(res.BushyMs) != res.K-1 {
		t.Fatalf("bushy plans = %d, want %d", len(res.BushyMs), res.K-1)
	}
}

func TestFig10Small(t *testing.T) {
	res, err := Fig10(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figures 10/11") {
		t.Fatal("render missing header")
	}
}

func TestFig12Small(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"ep"} // stand in for tm at test scale
	cfg.KRange = []int{3, 4}
	res, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 12") {
		t.Fatal("render missing header")
	}
	for _, k := range res.KRange {
		if res.IndexMs[k] < res.BFSMs[k] {
			t.Fatalf("k=%d: index time %f < BFS share %f", k, res.IndexMs[k], res.BFSMs[k])
		}
	}
}

func TestVaryKSmall(t *testing.T) {
	res, err := VaryK(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figures 13/14/15") {
		t.Fatal("render missing header")
	}
}

func TestFig16Small(t *testing.T) {
	res, err := Fig16(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 16") {
		t.Fatal("render missing header")
	}
	for _, d := range res.Datasets {
		for algo, cdf := range res.CDF[d] {
			prev := 0.0
			for _, f := range cdf {
				if f < prev {
					t.Fatalf("%s/%s: CDF not monotone: %v", d, algo, cdf)
				}
				prev = f
			}
		}
	}
}

func TestFig17Small(t *testing.T) {
	res, err := Fig17(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 17") {
		t.Fatal("render missing header")
	}
}

func TestFig18Small(t *testing.T) {
	res, err := Fig18(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Render(), "Figure 18") {
		t.Fatal("render missing header")
	}
	// The full-fledged estimate is a walk count: it upper-bounds the true
	// result count on every completed series point.
	for _, d := range res.Datasets {
		for k, actual := range res.Actual[d] {
			if full := res.FullFledged[d][k]; full+1e-9 < actual {
				t.Fatalf("%s k=%d: full estimate %f below actual %f", d, k, full, actual)
			}
		}
	}
}

func TestExtensionsSmall(t *testing.T) {
	cfg := tinyConfig()
	res, err := Extensions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	if !strings.Contains(out, "Extensions ablation") || !strings.Contains(out, "Session") {
		t.Fatalf("render:\n%s", out)
	}
	if res.OracleBuildMs <= 0 || res.OracleBytes <= 0 {
		t.Fatal("oracle stats missing")
	}
	if res.PlainMs <= 0 || res.SessionMs <= 0 || res.SessionOracleMs <= 0 {
		t.Fatal("query-time stats missing")
	}
	if !res.HPIBlewCap && res.HPISegments == 0 {
		t.Fatal("HPI stats missing despite successful build")
	}
}

// TestShardSmall: the sharded experiment runs, covers both classes at
// P>1, keeps path parity with the baseline (enforced inside Shard), and
// renders.
func TestShardSmall(t *testing.T) {
	cfg := tinyConfig()
	cfg.Datasets = []string{"ep"}
	res, err := Shard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]bool{}
	for _, row := range res.Rows {
		classes[row.Class] = true
		if row.P == 1 && row.Class != "intra" {
			t.Fatalf("P=1 must be intra-only, got %q", row.Class)
		}
		if row.Queries == 0 {
			t.Fatalf("empty row %+v", row)
		}
	}
	if !classes["intra"] || !classes["cross"] {
		t.Fatalf("classes covered: %v, want intra and cross", classes)
	}
	out := res.Render()
	for _, want := range []string{"overhead", "cross", "intra"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
