// Command benchpath regenerates the paper's tables and figures on the
// synthetic dataset registry and prints the reports recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	benchpath table3                 # one experiment
//	benchpath table3 fig6 fig13      # several
//	benchpath all                    # everything
//	benchpath -scale 0.2 -queries 30 -timelimit 500ms table3
//	benchpath -json parallel            # machine-readable JSON report
//
// Experiments: table3 table4 table5 table6 table7 fig6 fig7 fig8 fig9
// fig10 fig12 fig13 fig16 fig17 fig18 ext parallel shard mem
// (fig10 covers figure 11; fig13 covers figures 14 and 15; ext is this
// repository's extension ablation; parallel sweeps intra-query fan-out —
// Options.Parallelism doubling 1, 2, ... up to -parallel — reporting
// drain speedup and first-path latency per fan-out; shard runs
// partition-aware intra and cross query classes through the sharded
// engine at P=1/2/4 against an unsharded baseline on the same graph —
// the P=1 overhead column prices the routing layer, the cross rows the
// boundary join; mem sweeps EngineConfig.MemoryBudgetBytes from
// unbudgeted down to a pathological 1 byte, hard-erroring if any
// budgeted run's path counts diverge from the unbudgeted baseline or
// the ledger ever exceeds the effective budget — the report carries
// peak resident bytes, join-to-DFS fallbacks and refused cache
// deposits per budget point).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pathenum/internal/bench"
)

// renderable is what every experiment returns.
type renderable interface{ Render() string }

// experiments maps names to runners in paper order.
var experiments = []struct {
	name string
	run  func(bench.Config) (renderable, error)
}{
	{"table3", func(c bench.Config) (renderable, error) { return bench.Table3(c) }},
	{"table4", func(c bench.Config) (renderable, error) { return bench.Table4(c) }},
	{"table5", func(c bench.Config) (renderable, error) { return bench.Table5(c) }},
	{"table6", func(c bench.Config) (renderable, error) { return bench.Table6(c) }},
	{"table7", func(c bench.Config) (renderable, error) { return bench.Table7(c) }},
	{"fig6", func(c bench.Config) (renderable, error) { return bench.Fig6(c) }},
	{"fig7", func(c bench.Config) (renderable, error) { return bench.Fig7(c) }},
	{"fig8", func(c bench.Config) (renderable, error) { return bench.Fig8(c) }},
	{"fig9", func(c bench.Config) (renderable, error) { return bench.Fig9(c) }},
	{"fig10", func(c bench.Config) (renderable, error) { return bench.Fig10(c) }},
	{"fig12", func(c bench.Config) (renderable, error) { return bench.Fig12(c) }},
	{"fig13", func(c bench.Config) (renderable, error) { return bench.VaryK(c) }},
	{"fig16", func(c bench.Config) (renderable, error) { return bench.Fig16(c) }},
	{"fig17", func(c bench.Config) (renderable, error) { return bench.Fig17(c) }},
	{"fig18", func(c bench.Config) (renderable, error) { return bench.Fig18(c) }},
	{"ext", func(c bench.Config) (renderable, error) { return bench.Extensions(c) }},
	{"parallel", func(c bench.Config) (renderable, error) { return bench.Parallel(c) }},
	{"shard", func(c bench.Config) (renderable, error) { return bench.Shard(c) }},
	{"mem", func(c bench.Config) (renderable, error) { return bench.Mem(c) }},
}

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		queries   = flag.Int("queries", 100, "queries per query set")
		k         = flag.Int("k", 6, "default hop constraint")
		timeLimit = flag.Duration("timelimit", 2*time.Second, "per-query time limit")
		datasets  = flag.String("datasets", "", "comma-separated dataset subset")
		seed      = flag.Int64("seed", 42, "workload seed")
		parallel  = flag.Int("parallel", 4, "maximum intra-query fan-out for the parallel experiment")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON instead of rendered tables")
	)
	flag.Parse()
	names := flag.Args()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpath [flags] <experiment>... | all")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(names2(), " "))
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.Scale = *scale
	cfg.Queries = *queries
	cfg.K = *k
	cfg.TimeLimit = *timeLimit
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	if len(names) == 1 && names[0] == "all" {
		names = names2()
	}
	for _, name := range names {
		if err := runOne(name, cfg, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchpath:", err)
			os.Exit(1)
		}
	}
}

func names2() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

func runOne(name string, cfg bench.Config, jsonOut bool) error {
	for _, e := range experiments {
		if e.name != name {
			continue
		}
		start := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if jsonOut {
			// One self-describing JSON document per experiment: the shared
			// schema/meta block (bench.SchemaVersion — the same schema
			// cmd/loadpath emits), then the result struct verbatim under its
			// name.
			out, err := json.MarshalIndent(struct {
				Experiment string        `json:"experiment"`
				Meta       bench.RunMeta `json:"meta"`
				ElapsedMs  int64         `json:"elapsed_ms"`
				Result     interface{}   `json:"result"`
			}{Experiment: name, Meta: cfg.Meta(), ElapsedMs: time.Since(start).Milliseconds(), Result: res}, "", "  ")
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Println(string(out))
			return nil
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(names2(), " "))
}
