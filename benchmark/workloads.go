package main

import (
	"fmt"
	"math/rand"

	"pathenum"
	"pathenum/internal/gen"
	"pathenum/internal/workload"
)

// kind selects how a workload's ops reach the system under test.
type kind int

const (
	kindEngine kind = iota // pathenum.Engine.Stream drained in-process
	kindShard              // shard.Engine.Stream drained in-process
	kindServe              // internal/server over a loopback TCP listener
)

// spec fixes one workload: graph, query shape and sizes. Sizes are counts,
// so the query set and the path count of a pass repeat exactly for a seed;
// only the number of passes depends on -seconds.
type spec struct {
	name string
	why  string
	kind kind
	// graph names the gen.Registry dataset; scale shrinks it (-smoke only).
	graph string
	scale float64
	k     int
	// limit caps the results of one query (Request.Limit / "limit").
	limit uint64
	// queries is the number of distinct queries of a pass; on kindServe it
	// is the number of endpoint pairs the scripts draw from.
	queries int
	// clients is the number of closed-loop clients.
	clients int
	// writes is the number of single-edge inserts timed after the read
	// passes for write_p50_ms (kindServe writes inside its op mix instead).
	writes int
	// ladder is how many queries a traced run walks up the layer ladder,
	// replay how many ops it repeats untraced and traced.
	ladder int
	replay int
	// probeRefMs is the calibration probe's time on this graph on a quiet
	// machine of the kind the baseline was taken on: timings are reported
	// as if the probe took exactly this long (see calibrator).
	probeRefMs float64
	// copyRefMs, when set, is the same for the copy probe, which then
	// calibrates the set-ups and the write phase instead (see
	// calibrator.bulk).
	copyRefMs float64
	// freshWrites gives every timed insert an engine of its own (see writes).
	freshWrites bool
}

// specs are the four workloads. Their names are the benchmark's public
// vocabulary: every later performance claim names one of them.
var specs = []spec{
	{
		name:  "light_large",
		why:   "tm, 200 low-degree queries, k=4: BFS+index build over 120k vertices is >95% of an op and the frontier cache almost never hits, so prep and engine glue show and the kernels do not",
		kind:  kindEngine,
		graph: "tm", k: 4, limit: 256, queries: 200, clients: 1, writes: 41, freshWrites: true, ladder: 12, replay: 48, probeRefMs: 16.0, copyRefMs: 5.4,
	},
	{
		name:  "heavy_enum",
		why:   "ep, 250 hub-to-hub queries, k=6, limit 200000: enumeration and path delivery are ~70% of an op, so the DFS/join kernels, plan choice and stream fan-in show; mirror of light_large",
		kind:  kindEngine,
		graph: "ep", k: 6, limit: 200000, queries: 250, clients: 1, writes: 63, ladder: 12, replay: 96, probeRefMs: 4.8,
	},
	{
		name:  "serve_mixed",
		why:   "lj behind the HTTP server as pathenumd runs it, 2 clients, 60% query 25% paths 10% batch 5% insert over Zipf hubs: cache, batch sharing, writes beside reads and NDJSON are on the path",
		kind:  kindServe,
		graph: "lj", k: 5, limit: 2000, queries: 64, clients: 2, ladder: 16, replay: 240, probeRefMs: 5.2,
	},
	{
		name:  "shard_cross",
		why:   "lj over 2 hash shards, 600 queries, 60% of them cross-shard, k=5: the router, seam join and full-image fallback do the work here and none in the other three",
		kind:  kindShard,
		graph: "lj", k: 5, limit: 200000, queries: 600, clients: 1, writes: 31, ladder: 24, replay: 300, probeRefMs: 5.2,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to about 1/20 for the package tests: same code
// paths, a graph and query set small enough to run in a second.
func (s spec) smoke() spec {
	s.scale = 0.05
	s.queries = max(s.queries/20, 8)
	s.limit = max(s.limit/20, 64)
	s.writes = min(s.writes, 3)
	s.ladder = 4
	s.replay = 8
	return s
}

func (s spec) buildGraph() (*pathenum.Graph, error) {
	d, err := gen.Lookup(s.graph)
	if err != nil {
		return nil, err
	}
	if s.scale > 0 {
		d = d.Scale(s.scale)
	}
	return d.Build(), nil
}

// subSeed derives independent generator seeds from the run's -seed.
func subSeed(seed int64, stream int64) int64 { return seed*1000003 + stream }

// inputs is everything a run generates from the seed before any timing
// starts. The system under test only ever sees these.
type inputs struct {
	queries []workload.Query
	// edges are new edges (absent from the graph, pairwise distinct) for
	// the write phase and the traced insert probes.
	edges []pathenum.Edge
}

func makeInputs(s spec, g *pathenum.Graph, seed int64) (*inputs, error) {
	in := &inputs{}
	var err error
	switch s.name {
	case "light_large":
		// Half LowLow, half LowHigh, interleaved so every prefix has both.
		half := s.queries / 2
		ll, e1 := workload.Generate(g, workload.Options{Setting: workload.LowLow, Count: half, MaxDist: 3, Seed: subSeed(seed, 1)})
		lh, e2 := workload.Generate(g, workload.Options{Setting: workload.LowHigh, Count: s.queries - half, MaxDist: 3, Seed: subSeed(seed, 2)})
		if e1 != nil {
			return nil, e1
		}
		if e2 != nil {
			return nil, e2
		}
		for i := range lh {
			in.queries = append(in.queries, lh[i])
			if i < len(ll) {
				in.queries = append(in.queries, ll[i])
			}
		}
	case "shard_cross":
		var bq []workload.BatchQuery
		bq, err = workload.GeneratePartitioned(g, workload.PartitionOptions{
			Count: s.queries, K: s.k, Shards: 2, CrossFrac: crossFrac, Seed: subSeed(seed, 1)})
		for _, q := range bq {
			in.queries = append(in.queries, workload.Query{S: q.S, T: q.T})
		}
	default: // heavy_enum queries, serve_mixed endpoint pairs
		in.queries, err = workload.Generate(g, workload.Options{Setting: workload.HighHigh, Count: s.queries, MaxDist: 3, Seed: subSeed(seed, 1)})
	}
	if err != nil {
		return nil, fmt.Errorf("%s: sampling queries: %w", s.name, err)
	}
	in.edges = newEdges(g, rand.New(rand.NewSource(subSeed(seed, 3))), 80)
	return in, nil
}

// newEdges draws n distinct edges that g does not have.
func newEdges(g *pathenum.Graph, rng *rand.Rand, n int) []pathenum.Edge {
	seen := make(map[pathenum.Edge]bool, n)
	out := make([]pathenum.Edge, 0, n)
	nv := g.NumVertices()
	for len(out) < n {
		e := pathenum.Edge{From: pathenum.VertexID(rng.Intn(nv)), To: pathenum.VertexID(rng.Intn(nv))}
		if e.From == e.To || seen[e] || g.HasEdge(e.From, e.To) {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// opKind is the class of one serve_mixed op.
type opKind uint8

const (
	opQuery opKind = iota
	opPaths
	opBatch
	opInsert
	numOpKinds
)

var opRoutes = [numOpKinds]string{"/query", "/paths", "/batch", "/insert"}

// crossFrac is the share of shard_cross's queries whose endpoints two
// different shards own. It is not one half: first-path latency has one mode
// per class, and with the classes even every median would sit in the gap
// between the modes and jump with the seed.
const crossFrac = 0.6

// batchSize is the number of shared-source queries in one /batch op.
const batchSize = 8

// op is one scripted HTTP request: its class, the queries it asks (one,
// or batchSize sharing a source) and the encoded JSON body.
type op struct {
	kind    opKind
	queries []workload.Query
	body    []byte
}

// script generates one client's op sequence: 60% /query, 25% /paths, 10%
// /batch, 5% /insert, with endpoints drawn Zipf(1.1) over the pair list so
// hubs repeat. It is endless — a run takes as many ops as fit its time —
// and a pure function of (seed, client): the n-th op never depends on
// timing.
type script struct {
	s     spec
	rng   *rand.Rand
	zipf  *rand.Zipf
	pairs []workload.Query
	g     *pathenum.Graph
	used  map[pathenum.Edge]bool
}

func newScript(s spec, g *pathenum.Graph, pairs []workload.Query, seed int64, client int) *script {
	rng := rand.New(rand.NewSource(subSeed(seed, 10+int64(client))))
	return &script{
		s: s, rng: rng, pairs: pairs, g: g,
		zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pairs)-1)),
		used: make(map[pathenum.Edge]bool),
	}
}

func (sc *script) pair() workload.Query { return sc.pairs[sc.zipf.Uint64()] }

// next returns the next op. readOnly turns an insert into a query (the
// warm-up must not mutate the graph).
func (sc *script) next(readOnly bool) op {
	r := sc.rng.Intn(100)
	switch {
	case r < 60:
		return sc.single(opQuery)
	case r < 85:
		return sc.single(opPaths)
	case r < 95:
		src := sc.pair().S
		var qs []workload.Query
		for len(qs) < batchSize {
			if t := sc.pair().T; t != src {
				qs = append(qs, workload.Query{S: src, T: t})
			}
		}
		return batchOp(qs, sc.s.k, sc.s.limit)
	default:
		if readOnly {
			return sc.single(opQuery)
		}
		e := newEdges(sc.g, sc.rng, 1)[0]
		for sc.used[e] {
			e = newEdges(sc.g, sc.rng, 1)[0]
		}
		sc.used[e] = true
		return insertOp(e)
	}
}

func (sc *script) single(k opKind) op {
	q := sc.pair()
	return op{kind: k, queries: []workload.Query{q}, body: queryBody(q, sc.s.k, sc.s.limit)}
}

// batchOp is a /batch request for qs with a batch-wide limit.
func batchOp(qs []workload.Query, k int, limit uint64) op {
	o := op{kind: opBatch, queries: qs, body: []byte(`{"queries":[`)}
	for i, q := range qs {
		if i > 0 {
			o.body = append(o.body, ',')
		}
		o.body = fmt.Appendf(o.body, `{"s":%d,"t":%d,"k":%d}`, q.S, q.T, k)
	}
	o.body = fmt.Appendf(o.body, `],"limit":%d}`, limit)
	return o
}

// insertOp is an /insert request for one edge.
func insertOp(e pathenum.Edge) op {
	return op{kind: opInsert, body: fmt.Appendf(nil, `{"edges":[{"from":%d,"to":%d}]}`, e.From, e.To)}
}

func queryBody(q workload.Query, k int, limit uint64) []byte {
	return fmt.Appendf(nil, `{"s":%d,"t":%d,"k":%d,"limit":%d}`, q.S, q.T, k, limit)
}
