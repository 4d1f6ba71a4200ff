package main

import (
	"fmt"

	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/tpch"
)

// The join bench measures what the parallel partitioned hash join buys
// and checks what it must not change. It drains a whole scan→hashjoin
// pipeline under one Exchange — the shape the optimizer's parallelize
// post-pass emits — at DOP 1, 2, and 4, requires rows and cost counters
// identical to the serial plan, and times the serial-vs-DOP=4 speedup.
// It also pins the posterior pre-sizing contract through the
// robustqo_hashjoin_* metrics: a build estimate within 2x of the actual
// cardinality must record zero modeled rehashes and a pre-size hit,
// while a wild underestimate must record growth.
const (
	joinLines      = 60000
	joinReps       = 3
	joinMinSpeedup = 1.5
)

type joinReport struct {
	header
	Lines             int     `json:"lines"`
	BuildRows         int     `json:"build_rows"`
	Reps              int     `json:"reps"`
	SerialNsPerOp     float64 `json:"serial_ns_per_op"`
	DOP2NsPerOp       float64 `json:"dop2_ns_per_op"`
	DOP4NsPerOp       float64 `json:"dop4_ns_per_op"`
	SpeedupDOP2       float64 `json:"speedup_dop2"`
	SpeedupDOP4       float64 `json:"speedup_dop4"`
	Rows              int     `json:"rows"`
	IdenticalRows     bool    `json:"identical_rows"`
	IdenticalCounters bool    `json:"identical_counters"`
	MinSpeedup        float64 `json:"min_speedup"`
	// Pre-sizing gate: the estimated run carries BuildRowsEst within 2x
	// of the actual build cardinality and must not grow; the unsized run
	// models a hand-built plan and must.
	PresizeHits           int64 `json:"presize_hits"`
	PresizeRehashes       int64 `json:"presize_rehashes"`
	ParallelBuilds        int64 `json:"parallel_builds"`
	UnderestimateRehashes int64 `json:"underestimate_rehashes"`
}

func runJoin() (report, []gate, error) {
	db, ctx, _, err := setup(tpch.Config{Lines: joinLines, Seed: 2005}, 0)
	if err != nil {
		return nil, nil, err
	}
	orders, ok := db.Table("orders")
	if !ok {
		return nil, nil, fmt.Errorf("generated database has no orders table")
	}
	buildRows := orders.NumRows()

	// The probe side carries a selective filter, so the parallel work is
	// the full lineitem scan, filter, and probe — split across workers —
	// while the serial merge only carries the survivors. The build side
	// (all of orders) is big enough to cross the partitioned-build
	// threshold, so DOP>1 also exercises the two-phase parallel build.
	pred, err := expr.Parse("l_quantity >= 45 AND l_extendedprice BETWEEN 100 AND 20000")
	if err != nil {
		return nil, nil, err
	}
	// plan wraps the join in an Exchange for any dop > 0; dop 0 is the
	// serial reference.
	plan := func(dop int, est float64) engine.Node {
		var n engine.Node = &engine.HashJoin{
			Build:        &engine.SeqScan{Table: "orders"},
			Probe:        &engine.SeqScan{Table: "lineitem", Filter: pred},
			BuildCol:     expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
			ProbeCol:     expr.ColumnRef{Table: "lineitem", Column: "l_orderkey"},
			BuildRowsEst: est,
		}
		if dop > 0 {
			n = &engine.Exchange{Source: n, DOP: dop}
		}
		return n
	}
	est := 0.6 * float64(buildRows) // within the 2x pre-size headroom
	rep := &joinReport{Lines: joinLines, BuildRows: buildRows, Reps: joinReps, MinSpeedup: joinMinSpeedup}

	// Identity gate: the serial plan is the reference; Exchange at DOP
	// 1, 2, and 4 must reproduce its rows (in order) and its counters.
	if rep.Rows, rep.IdenticalRows, rep.IdenticalCounters, err = identity(ctx,
		plan(0, est), plan(1, est), plan(2, est), plan(4, est)); err != nil {
		return nil, nil, err
	}

	// Pre-sizing gate, measured through the metrics registry. One
	// estimated parallel run: zero rehashes, a pre-size hit, and a
	// partitioned build. One unsized run: modeled growth.
	sized := obs.NewRegistry()
	ctx.Metrics = sized
	if _, err := plan(4, est).Execute(ctx, &cost.Counters{}); err != nil {
		return nil, nil, err
	}
	rep.PresizeHits = sized.Counter("robustqo_hashjoin_presize_hits_total").Value()
	rep.PresizeRehashes = sized.Counter("robustqo_hashjoin_rehashes_total").Value()
	rep.ParallelBuilds = sized.Counter("robustqo_hashjoin_parallel_builds_total").Value()
	unsized := obs.NewRegistry()
	ctx.Metrics = unsized
	if _, err := plan(0, 0).Execute(ctx, &cost.Counters{}); err != nil {
		return nil, nil, err
	}
	rep.UnderestimateRehashes = unsized.Counter("robustqo_hashjoin_rehashes_total").Value()
	ctx.Metrics = nil

	t, _, err := timePlans(ctx, joinReps, plan(0, est), plan(2, est), plan(4, est))
	if err != nil {
		return nil, nil, err
	}
	rep.SerialNsPerOp, rep.DOP2NsPerOp, rep.DOP4NsPerOp = t[0], t[1], t[2]
	rep.SpeedupDOP2, rep.SpeedupDOP4 = t[0]/t[1], t[0]/t[2]
	fmt.Printf("join: %.0f ns serial, speedup %.2fx @2, %.2fx @4 (%d rows)\n",
		rep.SerialNsPerOp, rep.SpeedupDOP2, rep.SpeedupDOP4, rep.Rows)
	fmt.Printf("join: pre-sizing: %d hits, %d rehashes sized, %d rehashes unsized, %d parallel builds\n",
		rep.PresizeHits, rep.PresizeRehashes, rep.UnderestimateRehashes, rep.ParallelBuilds)

	return rep, append(identityGates("parallel join", rep.IdenticalRows, rep.IdenticalCounters),
		gate{
			name: "presize_rehashes", ok: rep.PresizeRehashes == 0,
			fail: fmt.Sprintf("estimate within 2x of %d build rows still recorded %d rehashes", buildRows, rep.PresizeRehashes),
		},
		gate{name: "presize_hits", ok: rep.PresizeHits >= 1, fail: "estimated build recorded no pre-size hit"},
		gate{
			name: "parallel_builds", ok: rep.ParallelBuilds >= 1,
			fail: fmt.Sprintf("DOP=4 build over %d rows did not partition", buildRows),
		},
		gate{name: "underestimate_rehashes", ok: rep.UnderestimateRehashes != 0, fail: "unsized build recorded no modeled rehashes"},
		gate{
			name: "dop4_speedup", clock: true, ok: rep.SpeedupDOP4 >= joinMinSpeedup,
			fail: fmt.Sprintf("DOP=4 speedup %.2fx below the %.1fx floor", rep.SpeedupDOP4, joinMinSpeedup),
		}), nil
}
