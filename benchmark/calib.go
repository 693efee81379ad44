package main

import (
	"time"

	"pathenum"
)

// calibrator is the benchmark's speed reference. The machines this runs on
// share caches and memory with other tenants, and a busy neighbour slows
// graph traversal by 30–60% for a minute at a time — far more than any
// bound worth gating on, and more than longer runs or medians can absorb.
// So every timing is taken together with a probe that suffers the same way:
// a full breadth-first search over the benchmark's own copy of the
// workload's graph (own arrays, own code — no layer of the program under
// test is in it, so no change to the program can move it). A timing is
// reported multiplied by refMs/probe: milliseconds at the speed of a quiet
// reference machine. A faster program lowers that number exactly as it
// lowers the raw one; a slow minute on the machine mostly does not.
type calibrator struct {
	off, adj []int32
	reps     int
	refMs    float64
	probes   []float64 // every probe of the run, ms
	// Write windows on a graph that outgrows the cache have a probe of
	// their own, see copyProbe.
	copyRefMs float64
	copies    []float64
}

// probeEdges sizes the probe: it repeats the search until about this many
// edges are scanned, a few milliseconds of work.
const probeEdges = 2_000_000

// probeEvery is how often the measured loops stop for a probe.
const probeEvery = 250 * time.Millisecond

func newCalibrator(g *pathenum.Graph, refMs, copyRefMs float64) *calibrator {
	n := g.NumVertices()
	c := &calibrator{off: make([]int32, n+1), refMs: refMs, copyRefMs: copyRefMs}
	for v := 0; v < n; v++ {
		c.off[v+1] = c.off[v] + int32(g.OutDegree(pathenum.VertexID(v)))
	}
	c.adj = make([]int32, c.off[n])
	for v := 0; v < n; v++ {
		copy(c.adj[c.off[v]:], g.OutNeighbors(pathenum.VertexID(v)))
	}
	c.reps = max(1, probeEdges/max(1, len(c.adj)))
	return c
}

// probe runs the reference searches and records their time in ms. The
// distance labels and the queue are allocated afresh each time, as the
// program under test allocates its own per query: where a buffer of a few
// hundred KB happens to land in physical memory decides how it shares the
// cache, and fixed buffers would make that one draw per process.
func (c *calibrator) probe() {
	dist := make([]int32, len(c.off)-1)
	queue := make([]int32, 0, len(dist))
	t0 := time.Now()
	reached := 0
	for r := 0; r < c.reps; r++ {
		for i := range dist {
			dist[i] = -1
		}
		root := int32(r % len(dist))
		q := append(queue[:0], root)
		dist[root] = 0
		for h := 0; h < len(q); h++ {
			v := q[h]
			d := dist[v] + 1
			for _, w := range c.adj[c.off[v]:c.off[v+1]] {
				if dist[w] < 0 {
					dist[w] = d
					q = append(q, w)
				}
			}
		}
		reached += len(q)
	}
	if reached < c.reps { // every search reaches at least its root
		panic("calibration search reached nothing")
	}
	c.probes = append(c.probes, ms(time.Since(t0)))
}

// mark opens a calibration window: a stretch of work of a few seconds with
// probes spread through it.
func (c *calibrator) mark() int { return len(c.probes) }

// factor closes the window opened at mark: the factor its timings are
// multiplied by is the reference over the median probe of the window. The
// median of a dozen probes follows a slow-down that lasts seconds and
// ignores one that lasts milliseconds, which hits ops and probes alike.
func (c *calibrator) factor(mark int) float64 {
	return c.refMs / median(c.probes[mark:])
}

// copyProbe is the probe of write windows on a graph that outgrows the
// cache (tm). An insert publishes a snapshot: there it streams the whole
// edge list through freshly allocated arrays several times, which a
// neighbour slows differently from a search that chases pointers through
// the cache. So the probe does what a snapshot build does, on the
// benchmark's own arrays: copy the adjacency into a new array and count
// every target's in-degree. On a graph that fits the cache a publish slows
// the way a search does, and the search probe follows it better.
func (c *calibrator) copyProbe() {
	t0 := time.Now()
	indeg := make([]int32, len(c.off))
	for r := 0; r < c.reps; r++ {
		adj := make([]int32, len(c.adj))
		copy(adj, c.adj)
		for _, w := range adj {
			indeg[w]++
		}
	}
	if len(c.adj) > 0 && indeg[c.adj[0]] < int32(c.reps) {
		panic("calibration copy lost an edge")
	}
	c.copies = append(c.copies, ms(time.Since(t0)))
}

// bulk gives mark, probe and factor for a window of bulk work, which builds
// whole graphs: a set-up or a write phase. They are the copy probe's when
// the workload has a reference for it and the search probe's otherwise.
func (c *calibrator) bulk() (mark int, probe func(), factor func(mark int) float64) {
	if c.copyRefMs == 0 {
		return len(c.probes), c.probe, c.factor
	}
	return len(c.copies), c.copyProbe, func(mark int) float64 {
		return c.copyRefMs / median(c.copies[mark:])
	}
}
