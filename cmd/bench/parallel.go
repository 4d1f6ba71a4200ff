package main

import (
	"fmt"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// The parallel bench measures what the morsel-driven Exchange operator
// buys and checks what it must not change. It times a scan-heavy and a
// join-heavy full drain at DOP 1, 2, and 4, requires identical rows and
// cost counters at every DOP, and drives the optimizer's star-join
// enumeration to measure the posterior-quantile cache hit rate.
const (
	parallelLines      = 60000
	parallelReps       = 3
	parallelMinSpeedup = 1.8
	parallelMinHitRate = 0.90
)

type parallelReport struct {
	header
	Lines        int      `json:"lines"`
	Reps         int      `json:"reps"`
	ScanHeavy    workload `json:"scan_heavy"`
	JoinHeavy    workload `json:"join_heavy"`
	MinSpeedup   float64  `json:"min_speedup"`
	CacheHits    int64    `json:"quantile_cache_hits"`
	CacheMisses  int64    `json:"quantile_cache_misses"`
	CacheHitRate float64  `json:"quantile_cache_hit_rate"`
	MinHitRate   float64  `json:"min_hit_rate"`
}

func runParallel() (report, []gate, error) {
	_, ctx, est, err := setup(tpch.Config{Lines: parallelLines, Seed: 2005}, seedCache)
	if err != nil {
		return nil, nil, err
	}
	// Scan-heavy: the predicate is evaluated for every lineitem row, and
	// under Exchange that evaluation is what the workers split. It is
	// deliberately selective — the parallel work is the full-table scan
	// and filter, while the serial merge only carries the survivors.
	pred, err := expr.Parse("l_quantity >= 45 AND l_extendedprice BETWEEN 100 AND 20000")
	if err != nil {
		return nil, nil, err
	}
	scanPlan := func(dop int) engine.Node {
		return exchange(&engine.SeqScan{Table: "lineitem", Filter: pred}, dop)
	}
	// Join-heavy: both hash-join inputs are Exchange-wrapped, so the
	// build partitions across workers before the shared probe phase.
	joinPlan := func(dop int) engine.Node {
		return &engine.HashJoin{
			Build:    exchange(&engine.SeqScan{Table: "orders"}, dop),
			Probe:    exchange(&engine.SeqScan{Table: "lineitem", Filter: pred}, dop),
			BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
			ProbeCol: expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
		}
	}
	scan, err := measureDOP(ctx, "scan-heavy seqscan+filter", parallelReps, scanPlan)
	if err != nil {
		return nil, nil, err
	}
	join, err := measureDOP(ctx, "join-heavy hashjoin", parallelReps, joinPlan)
	if err != nil {
		return nil, nil, err
	}
	hits, misses, err := cacheWorkload(ctx, est)
	if err != nil {
		return nil, nil, err
	}
	rep := &parallelReport{
		Lines:        parallelLines,
		Reps:         parallelReps,
		ScanHeavy:    scan,
		JoinHeavy:    join,
		MinSpeedup:   parallelMinSpeedup,
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheHitRate: float64(hits) / float64(hits+misses),
		MinHitRate:   parallelMinHitRate,
	}
	for _, w := range []workload{scan, join} {
		fmt.Printf("parallel: %s: %.0f ns serial, speedup %.2fx @2, %.2fx @4\n",
			w.Name, w.SerialNsPerOp, w.SpeedupDOP2, w.SpeedupDOP4)
	}
	fmt.Printf("parallel: quantile cache: %d hits / %d misses (%.1f%% hit rate)\n",
		hits, misses, rep.CacheHitRate*100)
	gates := append(identityGates("scan-heavy parallel", scan.IdenticalRows, scan.IdenticalCounters),
		identityGates("join-heavy parallel", join.IdenticalRows, join.IdenticalCounters)...)
	return rep, append(gates,
		gate{
			name: "dop4_speedup", clock: true,
			ok:   scan.SpeedupDOP4 >= parallelMinSpeedup,
			fail: fmt.Sprintf("scan-heavy DOP=4 speedup %.2fx below the %.1fx floor", scan.SpeedupDOP4, parallelMinSpeedup),
		},
		gate{
			name: "quantile_cache_hit_rate",
			ok:   rep.CacheHitRate >= parallelMinHitRate,
			fail: fmt.Sprintf("quantile-cache hit rate %.1f%% below the %.0f%% floor", rep.CacheHitRate*100, parallelMinHitRate*100),
		}), nil
}

// cacheWorkload reruns the optimizer's enumeration of a three-table
// star join against one shared robust estimator: after the first pass
// fills the posterior-quantile cache, every later pass should answer
// its quantile lookups from memory.
func cacheWorkload(ctx *engine.Context, est *core.BayesEstimator) (hits, misses int64, err error) {
	q, err := sqlparse.Parse("SELECT COUNT(*) FROM lineitem, orders, part " +
		"WHERE l_shipdate >= DATE '1997-01-01' AND o_totalprice < 40000 AND p_size < 30")
	if err != nil {
		return 0, 0, err
	}
	const enumerations = 12
	for i := 0; i < enumerations; i++ {
		opt, err := optimizer.New(ctx, est)
		if err != nil {
			return 0, 0, err
		}
		if _, err := opt.Optimize(q); err != nil {
			return 0, 0, err
		}
	}
	hits, misses = est.Quantiles.Stats()
	if hits+misses == 0 {
		return 0, 0, fmt.Errorf("star-join enumeration never consulted the quantile cache")
	}
	return hits, misses, nil
}
