package engine

// HashJoin as a morsel source: how an entire scan→hashjoin pipeline runs
// under one Exchange instead of parallelizing only the leaf.
//
// The join has one implementation of each half. HashJoin.build — key
// resolution, draining the build side, building the table, the
// HashBuilds charge — runs once on the coordinator in openMorsels,
// exactly as the serial operator runs it at Open (the table build itself
// is partitioned across dop workers when large enough, but it completes
// before any morsel runs and charges nothing from worker goroutines). The
// probe loop, hashProbe, is the serial operator's Next; the morsel worker
// runs it over the probe side's own morsel worker instead of the probe
// operator, against the finished table, which is read-only by then and
// safe to share across workers.
//
// Counter exactness therefore needs no second copy: the probe's charges
// are per-row on top of the probe side's (already tiling-invariant)
// charges. Row order is preserved because Exchange re-sequences morsels
// by index and, within a morsel, probe rows are joined in probe order
// with each key's build rows in build-input order — the serial nesting
// exactly.

import (
	"fmt"
	"sync/atomic"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
)

// openMorsels implements morselSource. It runs the join's build on the
// coordinator, partitioned across dop workers, and returns a runner that
// probes the finished table with the probe side's morsels.
func (j *HashJoin) openMorsels(ctx *Context, counters *cost.Counters, dop int) (morselRunner, error) {
	probeSrc, ok := morselSourceOf(j.Probe)
	if !ok {
		return nil, fmt.Errorf("engine: HashJoin probe %s is not morselizable", j.Probe.Describe())
	}
	p, schema, err := j.build(ctx, counters, dop)
	if err != nil {
		return nil, err
	}
	probeRunner, err := probeSrc.openMorsels(ctx, counters, dop)
	if err != nil {
		return nil, err
	}
	return &hashJoinMorselRunner{node: j, proto: p, schema: schema, probe: probeRunner}, nil
}

// hashJoinMorselRunner probes the shared, read-only build table with each
// probe morsel. probeRows/probeBatches accumulate the bypassed probe
// node's actuals for feedStats: the rows and batches the workers pulled
// from it, which are exactly what the serial join pulls.
type hashJoinMorselRunner struct {
	node   *HashJoin
	proto  hashProbe // the finished table and probe key, no source yet
	schema expr.RelSchema
	probe  morselRunner

	probeRows    atomic.Int64
	probeBatches atomic.Int64
}

func (r *hashJoinMorselRunner) numMorsels() int { return r.probe.numMorsels() }

func (r *hashJoinMorselRunner) newWorker() (morselWorker, error) {
	pw, err := r.probe.newWorker()
	if err != nil {
		return nil, err
	}
	w := &hashJoinMorselWorker{hashProbe: r.proto, r: r, probe: pw}
	w.src = pw
	w.out = getBatch(r.schema)
	return w, nil
}

// feedStats implements morselStatsFeeder: the probe node's own Stream was
// bypassed by the worker pool, so an Instrumented probe gets its actual
// row and batch totals here, at the Exchange barrier.
func (r *hashJoinMorselRunner) feedStats() {
	if inst, ok := r.node.Probe.(*Instrumented); ok && inst.Stats != nil {
		inst.Stats.Rows += r.probeRows.Load()
		inst.Stats.Batches += r.probeBatches.Load()
	}
	if f, ok := r.probe.(morselStatsFeeder); ok {
		f.feedStats()
	}
}

// hashJoinMorselWorker is the probe loop over the probe side's worker;
// Next is hashProbe.Next. Only the join's output batches are handed off;
// the probe worker's batches never leave the worker.
type hashJoinMorselWorker struct {
	hashProbe
	r     *hashJoinMorselRunner
	probe morselWorker
}

func (w *hashJoinMorselWorker) seek(m int, counters *cost.Counters) {
	w.probe.seek(m, counters)
	w.counters = counters
}

func (w *hashJoinMorselWorker) handOff() *Batch {
	b := w.out
	w.out = getBatch(w.r.schema)
	return b
}

// release reports the worker's probe totals to the runner; the Exchange
// releases every worker before its barrier calls feedStats.
func (w *hashJoinMorselWorker) release() {
	w.r.probeRows.Add(w.probed)
	w.r.probeBatches.Add(w.pulled)
	w.probe.release()
	putBatch(w.out)
	w.out = nil
}
