package shard

import (
	"fmt"
	"sync/atomic"

	"pathenum"
	"pathenum/internal/obs"
)

// shardMetrics is the pathenum_shard_* family on the registry the
// constituent engines share: routing counters per shard and per ordered
// shard pair, the cross-shard ratio, the remainder-fallback count, and
// scrape-time gauges over the cut structures. The constituent engines'
// own series (pathenum_requests_total, stage histograms, ...) aggregate
// across shards on the same registry, so one scrape covers the whole
// sharded engine.
type shardMetrics struct {
	intra        []*obs.Counter
	cross        [][]*obs.Counter
	fallbackRuns *obs.Counter

	nIntra atomic.Uint64
	nCross atomic.Uint64
}

func newShardMetrics(reg *pathenum.MetricsRegistry, e *Engine) *shardMetrics {
	m := &shardMetrics{
		intra: make([]*obs.Counter, e.p),
		cross: make([][]*obs.Counter, e.p),
	}
	sg := reg.Gauge("pathenum_shard_count", "Number of shards in the partitioned engine.")
	sg.Set(int64(e.p))
	m.fallbackRuns = reg.Counter("pathenum_shard_fallback_total",
		"Remainder phases routed through filtered full-image execution.")
	reg.GaugeFunc("pathenum_shard_cross_ratio",
		"Fraction of routed queries whose endpoints span two shards.",
		func() float64 {
			c, i := m.nCross.Load(), m.nIntra.Load()
			if c+i == 0 {
				return 0
			}
			return float64(c) / float64(c+i)
		})
	for a := 0; a < e.p; a++ {
		shard := fmt.Sprintf("%d", a)
		m.intra[a] = reg.Counter(
			obs.L("pathenum_shard_queries_total", "shard", shard),
			"Queries routed to a shard (intra-shard endpoints).")
		m.cross[a] = make([]*obs.Counter, e.p)
		sub := e.subs[a]
		reg.GaugeFunc(obs.L("pathenum_shard_graph_edges", "shard", shard),
			"Internal (co-owned) edges per shard sub-graph.",
			func() float64 { return float64(sub.Graph().NumEdges()) })
		for b := 0; b < e.p; b++ {
			if a == b {
				continue
			}
			pair := fmt.Sprintf("%d->%d", a, b)
			m.cross[a][b] = reg.Counter(
				obs.L("pathenum_shard_cross_queries_total", "pair", pair),
				"Cross-shard queries per ordered shard pair.")
			aa, bb := a, b
			reg.GaugeFunc(obs.L("pathenum_shard_cut_edges", "pair", pair),
				"Boundary (cut) edges per ordered shard pair.",
				func() float64 {
					e.mu.RLock()
					defer e.mu.RUnlock()
					return float64(e.cutCount[aa][bb])
				})
			reg.GaugeFunc(obs.L("pathenum_shard_boundary_vertices", "pair", pair),
				"Distinct boundary target vertices per ordered shard pair.",
				func() float64 {
					e.mu.RLock()
					defer e.mu.RUnlock()
					return float64(len(e.boundary[aa][bb]))
				})
		}
	}
	return m
}

// registerPoolGauges registers the pathenum_pool_* series from the sharded
// engine's aggregate PoolStats. It must run before any constituent engine
// is constructed on reg (see New); the gauges are first read after New
// returns.
func registerPoolGauges(reg *pathenum.MetricsRegistry, e *Engine) {
	reg.GaugeFunc("pathenum_pool_workers", "Configured query-executor workers.",
		func() float64 { return float64(e.PoolStats().Workers) })
	reg.GaugeFunc("pathenum_pool_inflight_queries", "Single-query executions currently running.",
		func() float64 { return float64(e.PoolStats().InFlightQueries) })
	reg.GaugeFunc("pathenum_pool_utilization", "In-flight load over the worker count (0..1+).",
		func() float64 { return e.PoolStats().Utilization() })
}

// observe counts one classified query.
func (m *shardMetrics) observe(r route) {
	switch r.kind {
	case routeIntra:
		m.intra[r.a].Inc()
		m.nIntra.Add(1)
	case routeCross:
		m.cross[r.a][r.b].Inc()
		m.nCross.Add(1)
	case routeSingle:
		m.fallbackRuns.Inc()
	}
}
