package main

import (
	"fmt"

	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/tpch"
)

// The obs bench measures the overhead the observability wrapper adds to
// streaming execution. It times the full-drain scan→filter pipeline
// bare, instrumented, and instrumented with cardinality-feedback ledger
// appends, and fails when the full pipeline is more than obsMaxOverhead
// slower than bare: the lifecycle pipeline is meant to be cheap enough
// to leave on.
const (
	obsLines       = 20000
	obsReps        = 5
	obsMaxOverhead = 0.05
)

// obsReport: OverheadFraction is the wrapper alone over bare;
// LedgerOverheadFrac is the ledger appends over the wrapper;
// TotalOverheadFrac (the gated number) is the full pipeline over bare.
type obsReport struct {
	header
	Benchmark          string  `json:"benchmark"`
	Lines              int     `json:"lines"`
	Reps               int     `json:"reps"`
	PlainNsPerOp       float64 `json:"plain_ns_per_op"`
	InstrumentedNsOp   float64 `json:"instrumented_ns_per_op"`
	LedgerNsPerOp      float64 `json:"ledger_ns_per_op"`
	OverheadFraction   float64 `json:"overhead_fraction"`
	LedgerOverheadFrac float64 `json:"ledger_overhead_fraction"`
	TotalOverheadFrac  float64 `json:"total_overhead_fraction"`
	MaxOverhead        float64 `json:"max_overhead"`
}

func runObs() (report, []gate, error) {
	_, ctx, _, err := setup(tpch.Config{Lines: obsLines, Seed: 2005}, 0)
	if err != nil {
		return nil, nil, err
	}
	// Full-drain scan→filter: every row crosses the wrapper, so this is
	// the worst case for per-batch instrumentation overhead.
	plan := func() engine.Node {
		return &engine.Filter{
			Input: &engine.SeqScan{Table: "lineitem"},
			Pred:  expr.Cmp{Op: expr.GE, L: expr.C("l_quantity"), R: expr.IntLit(0)},
		}
	}
	t, _, err := timePlans(ctx, obsReps, plan(), engine.Instrument(plan()), ledgerPlan(plan()))
	if err != nil {
		return nil, nil, err
	}
	plain, instrumented, ledgered := t[0], t[1], t[2]
	rep := &obsReport{
		Benchmark:          "ExecStream fulldrain scan+filter",
		Lines:              obsLines,
		Reps:               obsReps,
		PlainNsPerOp:       plain,
		InstrumentedNsOp:   instrumented,
		LedgerNsPerOp:      ledgered,
		OverheadFraction:   instrumented/plain - 1,
		LedgerOverheadFrac: ledgered/instrumented - 1,
		TotalOverheadFrac:  ledgered/plain - 1,
		MaxOverhead:        obsMaxOverhead,
	}
	fmt.Printf("obs: plain %.0f ns/op, instrumented %.0f ns/op (+%.2f%%), with ledger %.0f ns/op (+%.2f%%), total overhead %.2f%%\n",
		plain, instrumented, rep.OverheadFraction*100,
		ledgered, rep.LedgerOverheadFrac*100, rep.TotalOverheadFrac*100)
	return rep, []gate{{
		name: "total_overhead",
		ok:   rep.TotalOverheadFrac <= obsMaxOverhead,
		fail: fmt.Sprintf("total instrumentation overhead %.2f%% exceeds the %.0f%% budget",
			rep.TotalOverheadFrac*100, obsMaxOverhead*100),
	}}, nil
}

// ledgerPlan wraps the pipeline with the full lifecycle options: every
// node carries a fingerprinted estimate, so each execution appends one
// ledger observation per operator — the per-query ledger cost in its
// entirety, measured on top of the wrapper cost.
func ledgerPlan(root engine.Node) *engine.Instrumented {
	snaps := map[engine.Node]obs.EstimateSnapshot{
		root: {Rows: obsLines, Percentile: 0.8, Fingerprint: "lineitem|l_quantity>=b0"},
	}
	if f, ok := root.(*engine.Filter); ok {
		snaps[f.Input] = obs.EstimateSnapshot{Rows: obsLines, Percentile: 0.8, Fingerprint: "lineitem"}
	}
	led := ledger.New(0)
	live := &obs.QueryLive{ID: "bench", EstRows: obsLines}
	return engine.InstrumentOpts(root, engine.InstrumentOptions{
		EstimateOf: func(n engine.Node) (obs.EstimateSnapshot, bool) {
			s, ok := snaps[n]
			return s, ok
		},
		Ledger:  led,
		QueryID: "bench",
		Live:    live,
	})
}
