// Command benchpath regenerates the paper's tables and figures (§7 of
// the paper) on the synthetic dataset registry and prints them as text
// tables. `go run ./cmd/benchpath all` reproduces every one; DESIGN.md
// explains the mechanisms they measure. The per-layer performance of this
// implementation is measured by the benchmark/ module, not here.
//
// Usage:
//
//	benchpath table3                 # one experiment
//	benchpath table3 fig6 fig13      # several
//	benchpath all                    # everything
//	benchpath -scale 0.2 -queries 30 -timelimit 500ms table3
//
// Experiments: table3 table4 table5 table6 table7 fig6 fig7 fig8 fig9
// fig10 fig12 fig13 fig16 fig17 fig18 ext
// (fig10 covers figure 11; fig13 covers figures 14 and 15; ext is this
// repository's extension ablation: the landmark oracle, the reusable
// session and the HPI offline index).
package main

import (
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
}

func main() {
	var (
		scale     = flag.Float64("scale", 1.0, "dataset scale factor")
		queries   = flag.Int("queries", 100, "queries per query set")
		k         = flag.Int("k", 6, "default hop constraint")
		timeLimit = flag.Duration("timelimit", 2*time.Second, "per-query time limit")
		datasets  = flag.String("datasets", "", "comma-separated dataset subset")
		seed      = flag.Int64("seed", 42, "workload seed")
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
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	if len(names) == 1 && names[0] == "all" {
		names = names2()
	}
	for _, name := range names {
		if err := runOne(name, cfg); err != nil {
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

func runOne(name string, cfg bench.Config) error {
	for _, e := range experiments {
		if e.name != name {
			continue
		}
		start := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(names2(), " "))
}
