package main

import (
	"fmt"
	"strings"

	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
	"robustqo/internal/sqlparse"
	"robustqo/internal/storage"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// The shard bench checks what table partitioning must deliver and what
// it must not change. Against lineitem range-sharded on l_shipdate it
// checks that an equality predicate on the partition key plans a scan
// of exactly one shard (EXPLAIN ANALYZE's "partitions: 1/N"), that the
// executed scan charges exactly the surviving shard's pages and tuples,
// and that the pruned posterior estimate is no larger than the unpruned
// one. It then drains a pruned scatter-gather scan at DOP 1, 2, and 4
// and requires identical rows and cost counters at every DOP.
const (
	shardLines      = 60000
	shardCount      = 4
	shardReps       = 3
	shardMinSpeedup = 1.4
)

type shardReport struct {
	header
	Lines  int `json:"lines"`
	Shards int `json:"shards"`
	Reps   int `json:"reps"`

	// Pruning effectiveness: the equality query's planned shard list,
	// the EXPLAIN ANALYZE annotation, and the executed page accounting
	// of the pruned scan versus the surviving shard's exact span.
	EqualityShard     int    `json:"equality_shard"`
	PartsAnnotation   string `json:"parts_annotation"`
	ShardPages        int64  `json:"shard_pages"`
	TablePages        int    `json:"table_pages"`
	PrunedSeqPages    int64  `json:"pruned_seq_pages"`
	PrunedTuples      int64  `json:"pruned_tuples"`
	ShardTuples       int64  `json:"shard_tuples"`
	ExactPageAccounts bool   `json:"exact_page_accounting"`

	// Posterior tightening: pruning drops shards before the quantile,
	// so the pruned estimate can only shrink.
	UnprunedEstRows float64 `json:"unpruned_est_rows"`
	PrunedEstRows   float64 `json:"pruned_est_rows"`

	// Scatter-gather identity and timing of a pruned scan.
	PrunedScan workload `json:"pruned_scan"`
	MinSpeedup float64  `json:"min_speedup"`
}

func runShard() (report, []gate, error) {
	db, ctx, est, err := setup(tpch.Config{Lines: shardLines, Partitions: shardCount, Seed: 2005}, seedSynopsis)
	if err != nil {
		return nil, nil, err
	}
	line, _ := db.Table("lineitem")
	rep := &shardReport{
		Lines:      shardLines,
		Shards:     shardCount,
		Reps:       shardReps,
		TablePages: line.NumPages(),
		MinSpeedup: shardMinSpeedup,
	}
	gates, err := pruningGates(ctx, line, est, rep)
	if err != nil {
		return nil, nil, err
	}
	if rep.PrunedScan, err = prunedScanDOP(ctx, line); err != nil {
		return nil, nil, err
	}
	w := rep.PrunedScan
	fmt.Printf("shard: pruning: shard %d of %d, %d/%d pages, %s\n",
		rep.EqualityShard, shardCount, rep.ShardPages, rep.TablePages, rep.PartsAnnotation)
	fmt.Printf("shard: estimate: %.1f rows pruned vs %.1f unpruned\n", rep.PrunedEstRows, rep.UnprunedEstRows)
	fmt.Printf("shard: pruned scan: %.0f ns serial, speedup %.2fx @2, %.2fx @4\n",
		w.SerialNsPerOp, w.SpeedupDOP2, w.SpeedupDOP4)

	gates = append(gates,
		gate{
			name: "exact_page_accounting", ok: rep.ExactPageAccounts,
			fail: fmt.Sprintf("pruned scan charged %d pages / %d tuples, the surviving shard spans %d pages / %d tuples",
				rep.PrunedSeqPages, rep.PrunedTuples, rep.ShardPages, rep.ShardTuples),
		},
		gate{
			name: "pruned_estimate", ok: rep.PrunedEstRows <= rep.UnprunedEstRows,
			fail: fmt.Sprintf("pruned estimate %.2f rows exceeds unpruned %.2f", rep.PrunedEstRows, rep.UnprunedEstRows),
		})
	gates = append(gates, identityGates("pruned scatter-gather", w.IdenticalRows, w.IdenticalCounters)...)
	return rep, append(gates, gate{
		name: "dop4_speedup", clock: true, ok: w.SpeedupDOP4 >= shardMinSpeedup,
		fail: fmt.Sprintf("pruned-scan DOP=4 speedup %.2fx below the %.1fx floor", w.SpeedupDOP4, shardMinSpeedup),
	}), nil
}

// pruningGates plans and runs the equality-on-partition-key query: the
// optimizer must restrict the scan to the key's single shard, EXPLAIN
// ANALYZE must say so, the executed scan must charge exactly that
// shard's pages, and the pruned posterior must not exceed the unpruned.
func pruningGates(ctx *engine.Context, line *storage.Table, est core.Estimator, rep *shardReport) ([]gate, error) {
	key := value.DateFromCivil(1995, 6, 15)
	shard, ok := line.ShardOfKey(int64(key))
	if !ok {
		return nil, fmt.Errorf("lineitem is not partitioned for key routing")
	}
	rep.EqualityShard = shard

	q, err := sqlparse.Parse("SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE '1995-06-15'")
	if err != nil {
		return nil, err
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		return nil, err
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		return nil, err
	}
	parts, found := lineitemPartitions(first(plan.Root, func(n engine.Node) bool {
		_, ok := lineitemPartitions(n)
		return ok
	}))
	if !found {
		return nil, fmt.Errorf("no lineitem scan in the equality plan:\n%s", plan.Explain())
	}
	inst := engine.Instrument(plan.Root)
	var pc cost.Counters
	if _, err := inst.Execute(ctx, &pc); err != nil {
		return nil, err
	}
	explain := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
	rep.PartsAnnotation = fmt.Sprintf("partitions: 1/%d", rep.Shards)
	gates := []gate{
		{
			name: "equality_partitions", ok: len(parts) == 1 && parts[0] == shard,
			fail: fmt.Sprintf("equality plan scans partitions %v, want exactly [%d]", parts, shard),
		},
		{
			name: "parts_annotation", ok: strings.Contains(explain, rep.PartsAnnotation),
			fail: fmt.Sprintf("EXPLAIN ANALYZE lacks %q:\n%s", rep.PartsAnnotation, explain),
		},
	}

	// Exact page accounting on a sequential scan of the pruned shard:
	// the counters must equal the shard span's first-tuple page charge —
	// any access to a pruned shard would break the identity.
	lo, hi := line.PartitionSpan(shard)
	const per = storage.TuplesPerPage
	rep.ShardPages = int64((hi+per-1)/per - (lo+per-1)/per)
	rep.ShardTuples = int64(hi - lo)
	pred := expr.Cmp{Op: expr.EQ, L: expr.TC("lineitem", "l_shipdate"), R: expr.DateLit(int64(key))}
	pruned, ok := line.PrunePartitions("l_shipdate", int64(key), int64(key))
	if !ok || len(pruned) != 1 || pruned[0] != shard {
		return nil, fmt.Errorf("PrunePartitions(l_shipdate, =%d) = %v, %v; want [%d]", key, pruned, ok, shard)
	}
	var sc cost.Counters
	seq := &engine.SeqScan{Table: "lineitem", Filter: pred, Partitions: pruned}
	if _, err := seq.Execute(ctx, &sc); err != nil {
		return nil, err
	}
	rep.PrunedSeqPages, rep.PrunedTuples = sc.SeqPages, sc.Tuples
	rep.ExactPageAccounts = sc.SeqPages == rep.ShardPages && sc.Tuples == rep.ShardTuples

	// The unpruned leg lists every shard explicitly so both estimates
	// combine the same per-shard posteriors — the only difference is the
	// shards pruning dropped. (Partitions=nil would use the separately
	// sampled global synopsis, which is not an ordering comparison.)
	all := make([]int, line.Partitions())
	for i := range all {
		all[i] = i
	}
	unpruned, err := est.Estimate(core.Request{Tables: []string{"lineitem"}, Pred: pred, Partitions: all})
	if err != nil {
		return nil, err
	}
	shardOnly, err := est.Estimate(core.Request{Tables: []string{"lineitem"}, Pred: pred, Partitions: pruned})
	if err != nil {
		return nil, err
	}
	rep.UnprunedEstRows, rep.PrunedEstRows = unpruned.Rows, shardOnly.Rows
	return gates, nil
}

// lineitemPartitions returns the partition list of a lineitem scan leaf
// and whether n is one.
func lineitemPartitions(n engine.Node) ([]int, bool) {
	switch s := n.(type) {
	case *engine.SeqScan:
		return s.Partitions, s.Table == "lineitem"
	case *engine.IndexRangeScan:
		return s.Partitions, s.Table == "lineitem"
	case *engine.IndexIntersect:
		return s.Partitions, s.Table == "lineitem"
	}
	return nil, false
}

// prunedScanDOP drains a pruned scatter-gather scan — a two-shard date
// window with the matching partition list — at DOP 1, 2, and 4.
func prunedScanDOP(ctx *engine.Context, line *storage.Table) (workload, error) {
	lo := value.DateFromCivil(1994, 1, 1)
	hi := value.DateFromCivil(1996, 12, 31)
	parts, ok := line.PrunePartitions("l_shipdate", int64(lo), int64(hi))
	if !ok || len(parts) == 0 || len(parts) >= shardCount {
		return workload{}, fmt.Errorf("window pruning kept %v of %d shards; want a proper non-empty subset", parts, shardCount)
	}
	pred := expr.Between{
		E:  expr.TC("lineitem", "l_shipdate"),
		Lo: expr.DateLit(int64(lo)),
		Hi: expr.DateLit(int64(hi)),
	}
	return measureDOP(ctx, "pruned scatter-gather seqscan", shardReps, func(dop int) engine.Node {
		return exchange(&engine.SeqScan{Table: "lineitem", Filter: pred, Partitions: parts}, dop)
	})
}
