package main

import (
	"fmt"
	"strings"

	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// The columnar bench checks what compressed columnar segments must
// deliver and what they must not change. Against lineitem laid out in
// ship-date order it checks that the encodings shrink the resident
// column data by at least columnarMinCompression, that the optimizer
// plans a selective date-range query as a late-materialized encoded
// scan whose EXPLAIN ANALYZE reports the zone-map arithmetic
// ("segments: k/n skipped (late)"), that the encoded scan returns rows
// and cost counters identical to the row path at every materialization
// mode and DOP 1/2/4, and that the late-materialized scan beats the row
// path by at least columnarMinSpeedup. Every scan timed is serial, so
// the speedup gate holds on any core count.
const (
	columnarLines          = 120000
	columnarReps           = 3
	columnarMinSpeedup     = 2.0
	columnarMinCompression = 2.0
)

type columnarReport struct {
	header
	Lines int `json:"lines"`
	Reps  int `json:"reps"`

	// Compression: the encoded segments versus the raw column data they
	// replace, summed over every table.
	RawBytes         int64   `json:"raw_bytes"`
	EncodedBytes     int64   `json:"encoded_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
	MinCompression   float64 `json:"min_compression"`

	// Planning: the selective date-range query must come out as a
	// late-materialized encoded scan with most segments zone-skipped.
	SegsSkipped    int     `json:"segs_skipped"`
	SegsTotal      int     `json:"segs_total"`
	SegsAnnotation string  `json:"segs_annotation"`
	Strategy       string  `json:"strategy"`
	BoundedEstRows float64 `json:"bounded_est_rows"`
	UnboundEstRows float64 `json:"unbound_est_rows"`

	// Identity: rows and cost counters across materialization modes and
	// DOP 1/2/4 — the encoding is invisible to everything but the clock
	// and the resident bytes.
	MatchRows         int  `json:"match_rows"`
	IdenticalRows     bool `json:"identical_rows"`
	IdenticalCounters bool `json:"identical_counters"`

	// Wall clock: late-materialized encoded scan versus the row path on
	// the same selective predicate, best-of-reps.
	RowsNsPerOp  float64 `json:"rows_ns_per_op"`
	EagerNsPerOp float64 `json:"eager_ns_per_op"`
	LateNsPerOp  float64 `json:"late_ns_per_op"`
	Speedup      float64 `json:"speedup"`
	MinSpeedup   float64 `json:"min_speedup"`
}

var scanModes = []engine.ScanMode{engine.ScanRows, engine.ScanEager, engine.ScanLate}

func runColumnar() (report, []gate, error) {
	db, ctx, est, err := setup(tpch.Config{Lines: columnarLines, Seed: 2005, ClusterDates: true}, seedSynopsis)
	if err != nil {
		return nil, nil, err
	}
	encs, err := colstore.BuildAll(db)
	if err != nil {
		return nil, nil, err
	}
	ctx.Encodings = encs
	rep := &columnarReport{
		Lines:          columnarLines,
		Reps:           columnarReps,
		RawBytes:       encs.RawBytes(),
		EncodedBytes:   encs.EncodedBytes(),
		MinCompression: columnarMinCompression,
		MinSpeedup:     columnarMinSpeedup,
	}
	rep.CompressionRatio = float64(rep.RawBytes) / float64(rep.EncodedBytes)
	gates, err := planGates(ctx, est, rep)
	if err != nil {
		return nil, nil, err
	}

	// The gate query's WHERE clause: one quarter out of the ~6.6-year
	// ship-date span. On date-clustered data the quarter lives in a
	// handful of adjacent segments, so zone maps skip nearly everything.
	pred := expr.Between{
		E:  expr.TC("lineitem", "l_shipdate"),
		Lo: expr.DateLit(value.DateFromCivil(1997, 7, 1)),
		Hi: expr.DateLit(value.DateFromCivil(1997, 9, 30)),
	}
	// Identity: every materialization mode at DOP 1/2/4 against the
	// serial row path — the encoded paths charge exactly what it charges.
	var plans, serial []engine.Node
	for _, mode := range scanModes {
		for _, dop := range []int{1, 2, 4} {
			plans = append(plans, exchange(&engine.SeqScan{Table: "lineitem", Filter: pred, Mode: mode}, dop))
		}
		serial = append(serial, plans[len(plans)-3])
	}
	if rep.MatchRows, rep.IdenticalRows, rep.IdenticalCounters, err = identity(ctx, plans...); err != nil {
		return nil, nil, err
	}
	// Wall clock: serial scans per mode, so the speedup comes from
	// skipping and late materialization alone, not parallelism.
	t, _, err := timePlans(ctx, columnarReps, serial...)
	if err != nil {
		return nil, nil, err
	}
	rep.RowsNsPerOp, rep.EagerNsPerOp, rep.LateNsPerOp = t[0], t[1], t[2]
	rep.Speedup = rep.RowsNsPerOp / rep.LateNsPerOp

	fmt.Printf("columnar: compression: %d -> %d bytes (%.1fx)\n", rep.RawBytes, rep.EncodedBytes, rep.CompressionRatio)
	fmt.Printf("columnar: zone maps: %s, estimate %.1f bounded vs %.1f unbounded\n",
		rep.SegsAnnotation, rep.BoundedEstRows, rep.UnboundEstRows)
	fmt.Printf("columnar: selective scan: %.0f ns rows, %.0f ns eager, %.0f ns late (%.2fx)\n",
		rep.RowsNsPerOp, rep.EagerNsPerOp, rep.LateNsPerOp, rep.Speedup)

	gates = append(gates, gate{
		name: "compression", ok: rep.CompressionRatio >= columnarMinCompression,
		fail: fmt.Sprintf("compression %.2fx below the %.1fx floor", rep.CompressionRatio, columnarMinCompression),
	})
	gates = append(gates, identityGates("encoded scan", rep.IdenticalRows, rep.IdenticalCounters)...)
	return rep, append(gates, gate{
		name: "late_scan_speedup", ok: rep.Speedup >= columnarMinSpeedup,
		fail: fmt.Sprintf("late-scan speedup %.2fx below the %.1fx floor", rep.Speedup, columnarMinSpeedup),
	}), nil
}

// planGates optimizes the selective date-range aggregate with and
// without encodings: the encoded plan must be a late-materialized scan,
// EXPLAIN ANALYZE must carry the segment arithmetic, and the zone-map
// selectivity bound must only tighten the posterior estimate.
func planGates(ctx *engine.Context, est core.Estimator, rep *columnarReport) ([]gate, error) {
	const sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-09-30'"
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		return nil, err
	}
	optimize := func() (*optimizer.Plan, error) {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		return opt.Optimize(q)
	}
	// Unbounded leg: same context, encodings detached.
	encs := ctx.Encodings
	ctx.Encodings = nil
	free, err := optimize()
	ctx.Encodings = encs
	if err != nil {
		return nil, err
	}
	plan, err := optimize()
	if err != nil {
		return nil, err
	}
	scan, ok := lineitemSeqScan(plan.Root)
	if !ok {
		return nil, fmt.Errorf("no lineitem SeqScan in the encoded plan:\n%s", plan.Explain())
	}
	if scan.Mode != engine.ScanLate {
		return nil, fmt.Errorf("encoded plan scans with mode %v, want late:\n%s", scan.Mode, plan.Explain())
	}
	snap, ok := plan.EstimateOf(scan)
	if !ok || snap.SegsTotal == 0 {
		return nil, fmt.Errorf("encoded plan snapshot lacks segment arithmetic (%+v)", snap)
	}
	rep.SegsSkipped, rep.SegsTotal, rep.Strategy = snap.SegsSkipped, snap.SegsTotal, snap.Strategy
	rep.SegsAnnotation = fmt.Sprintf("segments: %d/%d skipped (%s)", snap.SegsSkipped, snap.SegsTotal, snap.Strategy)
	inst := engine.Instrument(plan.Root)
	var c cost.Counters
	if _, err := inst.Execute(ctx, &c); err != nil {
		return nil, err
	}
	explain := engine.ExplainAnalyze(inst, engine.AnalyzeOptions{EstimateOf: plan.EstimateOf})
	freeScan, ok := lineitemSeqScan(free.Root)
	if !ok {
		return nil, fmt.Errorf("no lineitem SeqScan in the row-path plan:\n%s", free.Explain())
	}
	freeSnap, _ := free.EstimateOf(freeScan)
	rep.BoundedEstRows, rep.UnboundEstRows = snap.Rows, freeSnap.Rows
	return []gate{
		{
			name: "segments_skipped", ok: snap.SegsSkipped > 0,
			fail: fmt.Sprintf("zone maps skipped no segments on date-clustered data (%s)", rep.SegsAnnotation),
		},
		{
			name: "segs_annotation", ok: strings.Contains(explain, rep.SegsAnnotation),
			fail: fmt.Sprintf("EXPLAIN ANALYZE lacks %q:\n%s", rep.SegsAnnotation, explain),
		},
		{
			name: "bounded_estimate", ok: rep.BoundedEstRows <= rep.UnboundEstRows,
			fail: fmt.Sprintf("zone-bounded estimate %.2f rows exceeds unbounded %.2f", rep.BoundedEstRows, rep.UnboundEstRows),
		},
	}, nil
}

// lineitemSeqScan returns the first lineitem SeqScan in a plan.
func lineitemSeqScan(root engine.Node) (*engine.SeqScan, bool) {
	s, ok := first(root, func(n engine.Node) bool {
		s, ok := n.(*engine.SeqScan)
		return ok && s.Table == "lineitem"
	}).(*engine.SeqScan)
	return s, ok
}
