package bench

import (
	"runtime"
)

// SchemaVersion identifies the shared machine-readable report schema
// emitted by benchpath -json and cmd/loadpath. Bump it when a field
// changes meaning; downstream tooling (plot scripts, CI artifact
// diffing) keys on this string before parsing rows.
const SchemaVersion = "pathenum-bench/v1"

// RunMeta is the provenance block every machine-readable report
// carries: what ran, on what data, under what runtime. Zero-valued
// fields are elided from the JSON so the block stays readable across
// tools with different knobs.
type RunMeta struct {
	Schema     string   `json:"schema"`
	Datasets   []string `json:"datasets,omitempty"`
	Scale      float64  `json:"scale,omitempty"`
	Queries    int      `json:"queries,omitempty"`
	K          int      `json:"k,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Parallel   int      `json:"parallel,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
}

// NewRunMeta stamps the schema version and runtime facts. Callers fill
// the workload-specific fields.
func NewRunMeta() RunMeta {
	return RunMeta{
		Schema:     SchemaVersion,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// Meta describes a benchpath experiment configuration.
func (c Config) Meta() RunMeta {
	c = c.normalized()
	m := NewRunMeta()
	m.Datasets = c.Datasets
	m.Scale = c.Scale
	m.Queries = c.Queries
	m.K = c.K
	m.Seed = c.Seed
	m.Parallel = c.Parallel
	return m
}
