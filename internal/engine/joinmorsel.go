package engine

// HashJoin as a morsel source: how an entire scan→hashjoin pipeline runs
// under one Exchange instead of parallelizing only the leaf.
//
// The split follows the same blocking/streaming line the serial operator
// draws. Everything hashJoinOp.Open does — schema resolution, draining
// the build side, building the hash table — happens once on the
// coordinator in openMorsels, charged to the shared counters exactly as
// the serial Open charges them (the table build itself is partitioned
// across dop workers when large enough, but it completes before any
// morsel runs and charges nothing from worker goroutines). The streaming
// phase — probe and emit — becomes the morsel work: each probe morsel's
// surviving rows are joined against the finished table, which is
// read-only by then and safe to share across workers.
//
// Counter exactness holds because the join's per-morsel charges are
// tiling-invariant on top of the probe's own (already tiling-invariant)
// charges: HashProbes counts surviving probe rows and Tuples counts
// matches, and both are per-row properties independent of how the rows
// are split into morsels. Row order is preserved because Exchange
// re-sequences morsels by index and, within a morsel, probe rows are
// joined in probe order with each key's build rows in build-input order —
// the serial nesting exactly.

import (
	"fmt"
	"sync/atomic"

	"robustqo/internal/cost"
	"robustqo/internal/value"
)

// openMorsels implements morselSource. It performs the serial operator's
// blocking Open work on the coordinator — including the (possibly
// partitioned) build — and returns a runner that joins the probe side's
// morsels against the finished table.
func (j *HashJoin) openMorsels(ctx *Context, counters *cost.Counters, dop int) (morselRunner, error) {
	buildSchema, err := j.Build.Schema(ctx)
	if err != nil {
		return nil, err
	}
	probeSchema, err := j.Probe.Schema(ctx)
	if err != nil {
		return nil, err
	}
	bIdx, err := buildSchema.Resolve(j.BuildCol)
	if err != nil {
		return nil, fmt.Errorf("engine: HashJoin build key: %v", err)
	}
	pIdx, err := probeSchema.Resolve(j.ProbeCol)
	if err != nil {
		return nil, fmt.Errorf("engine: HashJoin probe key: %v", err)
	}
	probeSrc, ok := morselSourceOf(j.Probe)
	if !ok {
		return nil, fmt.Errorf("engine: HashJoin probe %s is not morselizable", j.Probe.Describe())
	}
	buildRows, err := openAndDrainArena(ctx, j.Build, counters)
	if err != nil {
		return nil, err
	}
	table := buildJoinTable(buildRows, bIdx, j.BuildRowsEst, dop)
	table.recordMetrics(ctx.Metrics)
	counters.HashBuilds += int64(len(buildRows))
	probeRunner, err := probeSrc.openMorsels(ctx, counters, dop)
	if err != nil {
		return nil, err
	}
	return &hashJoinMorselRunner{node: j, table: table, pIdx: pIdx, probe: probeRunner}, nil
}

// hashJoinMorselRunner joins each probe morsel against the shared,
// read-only build table. probeRows/probeMorsels accumulate the bypassed
// probe node's actuals for feedStats.
type hashJoinMorselRunner struct {
	node  *HashJoin
	table *joinTable
	pIdx  int
	probe morselRunner

	probeRows    atomic.Int64
	probeMorsels atomic.Int64
}

func (r *hashJoinMorselRunner) numMorsels() int { return r.probe.numMorsels() }

func (r *hashJoinMorselRunner) newWorker() (morselWorker, error) {
	pw, err := r.probe.newWorker()
	if err != nil {
		return nil, err
	}
	return &hashJoinMorselWorker{r: r, probe: pw}, nil
}

// feedStats implements morselStatsFeeder: the probe node's own Stream was
// bypassed by the worker pool, so an Instrumented probe gets its actual
// row and morsel totals here, at the Exchange barrier.
func (r *hashJoinMorselRunner) feedStats() {
	if inst, ok := r.node.Probe.(*Instrumented); ok && inst.Stats != nil {
		inst.Stats.Rows += r.probeRows.Load()
		inst.Stats.Batches += r.probeMorsels.Load()
	}
	if f, ok := r.probe.(morselStatsFeeder); ok {
		f.feedStats()
	}
}

type hashJoinMorselWorker struct {
	r     *hashJoinMorselRunner
	probe morselWorker
}

// runMorsel joins one probe morsel against the shared table. Output rows
// are concatenated into arena slabs (see growArena) rather than one
// allocation per match, and the row-header slice is sized
// to the probe count up front, which covers the common at-most-one-match
// joins without a single growth step.
//
//qo:hotpath
func (w *hashJoinMorselWorker) runMorsel(m int, counters *cost.Counters) ([]value.Row, error) {
	probeRows, err := w.probe.runMorsel(m, counters)
	if err != nil {
		return nil, err
	}
	w.r.probeRows.Add(int64(len(probeRows)))
	w.r.probeMorsels.Add(1)
	// Same charges as hashJoinOp.Next: one probe per surviving probe row,
	// one tuple per match; totals are independent of the morsel tiling.
	counters.HashProbes += int64(len(probeRows))
	table := w.r.table
	rows := make([]value.Row, 0, len(probeRows))
	var arena []value.Value
	for _, pRow := range probeRows {
		for idx := table.first(pRow[w.r.pIdx]); idx >= 0; idx = table.next[idx] {
			counters.Tuples++
			bRow := table.rows[idx]
			arena = growArena(arena, len(bRow)+len(pRow))
			start := len(arena)
			arena = append(arena, bRow...)
			arena = append(arena, pRow...)
			rows = append(rows, arena[start:len(arena):len(arena)])
		}
	}
	return rows, nil
}

func (w *hashJoinMorselWorker) release() { w.probe.release() }
