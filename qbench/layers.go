package main

import (
	"time"

	"robustqo/internal/cost"
)

// opNames are the engine's operator names, as engine.OpName gives them.
var opNames = []string{
	"SeqScan", "IndexRangeScan", "IndexIntersect", "HashJoin", "MergeJoin", "INLJoin",
	"StarSemiJoin", "Filter", "Project", "Aggregate", "Sort", "Limit", "Exchange",
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer a workload does not reach reads 0.
func perLayer() map[string]string {
	m := map[string]string{
		"sqlparse.parse_us_p50":              "us",
		"plancache.lookup_us_p50":            "us",
		"plancache.hit_share":                "fraction",
		"plancache.rebind_share":             "fraction",
		"plancache.miss_share":               "fraction",
		"plancache.reject_share":             "fraction",
		"plancache.evictions":                "count",
		"plancache.admit_wait_us_p95":        "us",
		"optimizer.optimize_us_p50":          "us",
		"optimizer.optimize_us_p95":          "us",
		"optimizer.calls_per_query":          "count",
		"optimizer.estimate_cache_hit_ratio": "fraction",
		"core.quantile_cache_hit_ratio":      "fraction",
		"engine.execute_ms_p50":              "ms",
		"engine.rows_out_per_query":          "count",
		"engine.allocs_per_query":            "count",
		"engine.alloc_kb_per_query":          "KB",
		"engine.pages_seq_per_query":         "count",
		"engine.pages_random_per_query":      "count",
		"engine.tuples_per_query":            "count",
		"engine.exchange_busy_ratio":         "fraction",
		"engine.hashjoin_rehashes":           "count",
		"colstore.segments_skipped_share":    "fraction",
		"colstore.compression_ratio":         "ratio",
		"obs.instrument_us_p50":              "us",
		"obs.ledger_appends_per_query":       "count",
		"robustqo.query_ms_p50":              "ms",
		"setup.generate_s":                   "s",
		"index.build_s":                      "s",
		"sample.build_s":                     "s",
		"histogram.build_s":                  "s",
		"colstore.build_s":                   "s",
		"trace.qps_untraced":                 "queries/s",
		"trace.qps_traced":                   "queries/s",
		"trace.overhead_share":               "fraction",
	}
	for _, mode := range []string{"t50", "t80", "t95", "hist"} {
		m["optimizer.sim_cost_mean_s."+mode] = "s"
		m["optimizer.sim_cost_p95_s."+mode] = "s"
	}
	for _, op := range opNames {
		m["engine.op."+op+".self_ms_per_query"] = "ms"
	}
	for _, l := range layers {
		m[l+".self_share"] = "fraction"
	}
	return m
}

// allocReplay is how many pass entries the serial allocation replay
// runs.
const allocReplay = 100

// layerMetrics computes the per-layer metrics of a traced loop.
func (b *bench) layerMetrics(res *loopResult, tr *traceSet) map[string]metric {
	m := map[string]metric{}
	b.sys.layerMetrics(res, tr, b.countersBase, b.sys.counterSnapshot(), m)
	done := float64(res.attempted - res.failed)

	self, wall := tr.selfTimes()
	for _, l := range layers {
		m[l+".self_share"] = metric{self[l].Seconds() / wall.Seconds(), "fraction"}
	}

	for _, mode := range []string{"t50", "t80", "t95", "hist"} {
		sims := res.sims(b.pass, mode)
		m["optimizer.sim_cost_mean_s."+mode] = metric{mean(sims), "s"}
		m["optimizer.sim_cost_p95_s."+mode] = metric{quantileOf(sims, 0.95), "s"}
	}

	var tot cost.Counters
	for _, o := range res.first {
		tot.Add(o.counters)
	}
	n := float64(len(res.first))
	m["engine.pages_seq_per_query"] = metric{float64(tot.SeqPages) / n, "count"}
	m["engine.pages_random_per_query"] = metric{float64(tot.RandPages) / n, "count"}
	m["engine.tuples_per_query"] = metric{float64(tot.Tuples) / n, "count"}

	var rows int64
	ops := map[string]time.Duration{}
	for _, c := range res.clients {
		rows += c.rowsOut
		for op, d := range c.ops {
			ops[op] += d
		}
	}
	m["engine.rows_out_per_query"] = metric{float64(rows) / done, "count"}
	for _, op := range opNames {
		m["engine.op."+op+".self_ms_per_query"] = metric{ops[op].Seconds() * 1000 / done, "ms"}
	}

	// Allocation counts come from a serial replay, one query at a time,
	// because concurrent clients' allocations cannot be told apart.
	c := &client{measureAllocs: true}
	k := 0
	for ; k < allocReplay && k < len(b.pass); k++ {
		if _, err := b.sys.run(c, b.pass[k]); err != nil {
			break
		}
	}
	if k > 0 {
		m["engine.allocs_per_query"] = metric{float64(c.allocs) / float64(k), "count"}
		m["engine.alloc_kb_per_query"] = metric{float64(c.allocBytes) / 1024 / float64(k), "KB"}
	}

	for name, unit := range perLayer() {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
	return m
}
