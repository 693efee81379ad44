package bench

import (
	"fmt"
	"time"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
	"pathenum/internal/workload"
)

// Config scales an experiment. The defaults reproduce the paper's setup at
// laptop scale; bench_test.go shrinks them further for testing.B runs.
type Config struct {
	// Scale multiplies registry dataset sizes (1.0 = registry defaults).
	Scale float64
	// Queries per query set (the paper uses 1000).
	Queries int
	// K is the default hop constraint (the paper reports k=6).
	K int
	// KRange is the sweep used by the varying-k experiments (paper: 3..8).
	KRange []int
	// TimeLimit bounds each query (paper: 120 s).
	TimeLimit time.Duration
	// ResponseK defines response time (paper: first 1000 results).
	ResponseK uint64
	// Datasets restricts the experiment to these registry names.
	Datasets []string
	// Setting selects the workload query setting (paper default: V'xV').
	Setting workload.Setting
	// Seed drives workload sampling.
	Seed int64
}

// DefaultConfig returns the full-size laptop configuration used by
// cmd/benchpath.
func DefaultConfig() Config {
	return Config{
		Scale:     1.0,
		Queries:   100,
		K:         6,
		KRange:    []int{3, 4, 5, 6, 7, 8},
		TimeLimit: 2 * time.Second,
		ResponseK: 1000,
		Setting:   workload.HighHigh,
		Seed:      42,
	}
}

// normalized fills defaults.
func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.K <= 0 {
		c.K = 6
	}
	if len(c.KRange) == 0 {
		c.KRange = []int{3, 4, 5, 6, 7, 8}
	}
	if c.TimeLimit <= 0 {
		c.TimeLimit = 2 * time.Second
	}
	if c.ResponseK == 0 {
		c.ResponseK = 1000
	}
	return c
}

// runConfig derives the per-query bounds for hop constraint k.
func (c Config) runConfig(k int) RunConfig {
	return RunConfig{K: k, TimeLimit: c.TimeLimit, ResponseK: c.ResponseK}
}

// loadDataset builds one scaled registry dataset.
func loadDataset(name string, scale float64) (*graph.Graph, error) {
	d, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	return d.Scale(scale).Build(), nil
}

// sampleQueries draws the query set; when the sampler cannot fill the
// requested count within the distance bound it returns what it found, as
// long as at least one query exists.
func sampleQueries(g *graph.Graph, cfg Config) ([]workload.Query, error) {
	qs, err := workload.Generate(g, workload.Options{
		Setting: cfg.Setting,
		Count:   cfg.Queries,
		Seed:    cfg.Seed,
	})
	if err != nil && len(qs) == 0 {
		return nil, fmt.Errorf("bench: no usable queries: %w", err)
	}
	return qs, nil
}
