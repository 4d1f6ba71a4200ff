package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
)

// Exchange runs a morselizable source on DOP worker goroutines and merges
// their output back into the serial Open/Next/Close contract. Workers
// claim morsels from a shared counter, accumulate into private
// cost.Counters, and ship each morsel's output batches to the
// coordinator. The coordinator re-sequences morsels by index and emits
// their batches unchanged, so the parallel stream is batch for batch the
// serial one; it folds the per-worker counters into the shared counters
// exactly once, in worker order. A full drain is therefore
// byte-identical, in both rows and counters, to running the source
// serially.
//
// Batch ownership: a worker gives up each batch it emits (see
// morselWorker.handOff) and sends it to the coordinator, which owns it
// from then on. A batch returned from Next stays valid until the next
// Next or Close, which put it back into batchPool; batches that are
// never delivered — in the results channel, the out-of-order pending
// map, the current morsel's unread tail, or held by a worker stopped
// mid-send — go back to the pool when the pool of workers stops.
//
// With DOP < 2, or over a source that cannot be morselized, Exchange
// degrades to a pure pass-through of the source's own operator.
type Exchange struct {
	Source Node
	DOP    int
	// Trace, when non-nil, receives one worker-N span per worker carrying
	// the morsel and row totals it processed.
	Trace *obs.Trace
}

// Schema implements Node.
func (e *Exchange) Schema(ctx *Context) (expr.RelSchema, error) {
	return e.Source.Schema(ctx)
}

// Describe implements Node.
func (e *Exchange) Describe() string {
	return fmt.Sprintf("Exchange(dop=%d, %s)", e.DOP, e.Source.Describe())
}

// Execute implements Node.
func (e *Exchange) Execute(ctx *Context, counters *cost.Counters) (*Result, error) {
	return execStream(ctx, e, counters)
}

// Stream implements Node.
func (e *Exchange) Stream() Operator { return &exchangeOp{node: e} }

// morselResult carries one finished morsel from a worker to the
// coordinator: the morsel's output batches, now owned by the receiver,
// and the error that ended the morsel early, if any.
type morselResult struct {
	m       int
	batches []*Batch
	err     error
}

// workerReport is each worker's final accounting: the counters it
// accumulated privately, shipped to the coordinator at the barrier.
// busy/wall are wall-clock utilization figures, populated only when the
// context carries a metrics registry; they never influence results or
// cost.Counters.
type workerReport struct {
	w        int
	counters cost.Counters
	morsels  int
	batches  int64
	rows     int64
	busy     time.Duration
	wall     time.Duration
}

type exchangeOp struct {
	node     *Exchange
	counters *cost.Counters

	// passthrough is set when the source runs serially (DOP < 2 or not
	// morselizable); every call then delegates to it.
	passthrough Operator

	// metrics, when non-nil, receives the robustqo_exchange_* utilization
	// series: per-worker busy fractions, queue depth samples, and row/
	// shard skew. Copied from Context.Metrics at Open.
	metrics *obs.Registry
	// shardOf maps a morsel index to its shard; shardRows accumulates
	// emitted rows per shard for the skew metric. Both nil unless the
	// runner is sharded and metrics are on.
	shardOf   func(int) int
	shardRows []int64

	runner   morselRunner
	nMorsels int
	nWorkers int
	claim    atomic.Int64
	stopCh   chan struct{}
	stopped  bool
	results  chan morselResult
	reports  chan workerReport
	wg       sync.WaitGroup
	spans    []*obs.Span

	next    int                  // next morsel index to emit
	pending map[int]morselResult // received out-of-order morsels
	cur     []*Batch             // unread batches of the current morsel
	err     error                // raised by the current morsel after cur
	out     *Batch               // the batch the last Next returned
	merged  bool
}

func (o *exchangeOp) Open(ctx *Context, counters *cost.Counters) error {
	o.counters = counters
	src, ok := morselSourceOf(o.node.Source)
	if o.node.DOP < 2 || !ok {
		o.passthrough = o.node.Source.Stream()
		return o.passthrough.Open(ctx, counters)
	}
	runner, err := src.openMorsels(ctx, counters, o.node.DOP)
	if err != nil {
		return err
	}
	o.runner = runner
	o.metrics = ctx.Metrics
	if o.metrics != nil {
		if sr, ok := runner.(shardedRunner); ok && sr.numShards() > 1 {
			o.shardOf = sr.shardOfMorsel
			o.shardRows = make([]int64, sr.numShards())
		}
	}
	o.nMorsels = runner.numMorsels()
	o.nWorkers = min(o.node.DOP, o.nMorsels)
	o.pending = make(map[int]morselResult, o.nWorkers)
	if o.nWorkers == 0 {
		return nil
	}
	o.stopCh = make(chan struct{})
	o.results = make(chan morselResult, o.nWorkers*2)
	o.reports = make(chan workerReport, o.nWorkers)
	o.spans = make([]*obs.Span, o.nWorkers)
	for w := 0; w < o.nWorkers; w++ {
		mw, err := runner.newWorker()
		if err != nil {
			o.finish()
			return err
		}
		o.spans[w] = o.node.Trace.StartSpanDetached(fmt.Sprintf("worker-%d", w))
		o.wg.Add(1)
		timed := o.metrics != nil
		go func(w int, mw morselWorker) {
			defer o.wg.Done()
			defer mw.release()
			// Counters stay goroutine-local; they reach the shared
			// counters only via the report channel, merged at the
			// coordinator's barrier. busy/wall time the morsel work vs the
			// worker's whole lifetime — the busy fraction's complement is
			// time spent waiting on the coordinator's backpressure.
			var wc cost.Counters
			var rows, batches int64
			var busy time.Duration
			var wallStart time.Time
			if timed {
				wallStart = time.Now()
			}
			morsels := 0
			report := func() {
				var wall time.Duration
				if timed {
					wall = time.Since(wallStart)
				}
				o.reports <- workerReport{w: w, counters: wc, morsels: morsels, batches: batches, rows: rows, busy: busy, wall: wall}
			}
			defer report()
			for {
				select {
				case <-o.stopCh:
					return
				default:
				}
				m := int(o.claim.Add(1)) - 1
				if m >= o.nMorsels {
					break
				}
				var start time.Time
				if timed {
					start = time.Now()
				}
				out, err := drainMorsel(mw, m, &wc)
				if timed {
					busy += time.Since(start)
				}
				for _, b := range out {
					rows += int64(b.Len())
				}
				batches += int64(len(out))
				morsels++
				select {
				case o.results <- morselResult{m: m, batches: out, err: err}:
				case <-o.stopCh:
					// Never delivered: the batches are still this worker's.
					putBatches(out)
					return
				}
				if err != nil {
					// Stop claiming; the coordinator surfaces the error
					// when emission order reaches this morsel.
					return
				}
			}
		}(w, mw)
	}
	return nil
}

func (o *exchangeOp) Next() (*Batch, error) {
	if o.passthrough != nil {
		return o.passthrough.Next()
	}
	// The batch the previous pull returned was the caller's until now.
	putBatch(o.out)
	o.out = nil
	for len(o.cur) == 0 {
		if o.err != nil {
			return nil, o.err
		}
		if o.next >= o.nMorsels {
			o.finish()
			return nil, nil
		}
		// Block until the next in-order morsel arrives; stash any that
		// arrive ahead of their turn. Every morsel index gets exactly one
		// result, so this always terminates.
		res, ok := o.pending[o.next]
		for !ok {
			if o.metrics != nil {
				// Sampled just before each blocking receive: how far the
				// workers have run ahead of the in-order merge.
				o.metrics.Histogram("robustqo_exchange_queue_depth", obs.DepthBuckets).Observe(float64(len(o.results)))
			}
			r := <-o.results
			if o.shardRows != nil {
				for _, b := range r.batches {
					o.shardRows[o.shardOf(r.m)] += int64(b.Len())
				}
			}
			o.pending[r.m] = r
			res, ok = o.pending[o.next]
		}
		delete(o.pending, o.next)
		o.next = o.next + 1
		o.cur, o.err = res.batches, res.err
	}
	o.out, o.cur = o.cur[0], o.cur[1:]
	return o.out, nil
}

func (o *exchangeOp) Close() {
	if o.passthrough != nil {
		o.passthrough.Close()
		return
	}
	o.finish()
	putBatch(o.out)
	o.out = nil
}

// finish stops the pool, waits for every worker, returns every
// undelivered batch to the pool, and merges the per-worker counters into
// the shared counters — exactly once, in worker order, so repeated
// drains and early Closes both account every charge deterministically.
func (o *exchangeOp) finish() {
	if o.merged {
		return
	}
	o.merged = true
	if o.stopCh != nil && !o.stopped {
		o.stopped = true
		close(o.stopCh)
	}
	o.wg.Wait()
	for {
		// Release any undelivered morsels (nil channel: skipped).
		select {
		case r := <-o.results:
			putBatches(r.batches)
			continue
		default:
		}
		break
	}
	for _, r := range o.pending {
		putBatches(r.batches)
	}
	o.pending = nil
	putBatches(o.cur)
	o.cur = nil
	reps := make([]workerReport, o.nWorkers)
	got := make([]bool, o.nWorkers)
	for {
		select {
		case r := <-o.reports:
			reps[r.w] = r
			got[r.w] = true
			continue
		default:
		}
		break
	}
	var totalRows, totalMorsels, totalBatches, maxWorkerRows int64
	nReported := 0
	for w := range reps {
		if got[w] {
			o.counters.Add(reps[w].counters)
			totalRows += reps[w].rows
			totalMorsels += int64(reps[w].morsels)
			totalBatches += reps[w].batches
			if reps[w].rows > maxWorkerRows {
				maxWorkerRows = reps[w].rows
			}
			nReported++
			if sp := o.spans[w]; sp != nil {
				sp.SetAttr("morsels", fmt.Sprintf("%d", reps[w].morsels))
				sp.SetAttr("rows", fmt.Sprintf("%d", reps[w].rows))
			}
			if o.metrics != nil && reps[w].wall > 0 {
				o.metrics.Histogram("robustqo_exchange_worker_busy_ratio", obs.RatioBuckets).
					Observe(reps[w].busy.Seconds() / reps[w].wall.Seconds())
			}
		}
		if w < len(o.spans) {
			o.spans[w].End()
		}
	}
	o.exportSkew(totalRows, totalMorsels, maxWorkerRows, nReported)
	// The workers bypass an instrumented source's pass-through wrapper,
	// so feed the rows and batches they emitted into its stats here;
	// EXPLAIN ANALYZE then reports the source's actuals as it would
	// serially.
	if inst, ok := o.node.Source.(*Instrumented); ok && inst.Stats != nil {
		inst.Stats.Rows += totalRows
		inst.Stats.Batches += totalBatches
	}
	// Runners that bypass further Instrumented wrappers inside the source
	// subtree (HashJoin over an instrumented probe) feed those here too.
	if f, ok := o.runner.(morselStatsFeeder); ok {
		f.feedStats()
	}
}

// exportSkew emits the drain-level utilization series: totals, the
// max-over-mean row skew across workers, and — when the runner is
// sharded — the same skew statistic across shards. A skew of 1.0 is a
// perfectly balanced drain; the histogram buckets (obs.SkewBuckets) top
// out at 10x.
func (o *exchangeOp) exportSkew(totalRows, totalMorsels, maxWorkerRows int64, nWorkers int) {
	if o.metrics == nil {
		return
	}
	o.metrics.Counter("robustqo_exchange_rows_total").Add(totalRows)
	o.metrics.Counter("robustqo_exchange_morsels_total").Add(totalMorsels)
	if totalRows > 0 && nWorkers > 0 {
		skew := float64(maxWorkerRows) * float64(nWorkers) / float64(totalRows)
		o.metrics.Histogram("robustqo_exchange_row_skew", obs.SkewBuckets).Observe(skew)
	}
	if o.shardRows != nil {
		var shardTotal, shardMax int64
		for _, r := range o.shardRows {
			shardTotal += r
			if r > shardMax {
				shardMax = r
			}
		}
		if shardTotal > 0 {
			skew := float64(shardMax) * float64(len(o.shardRows)) / float64(shardTotal)
			o.metrics.Histogram("robustqo_exchange_shard_skew", obs.SkewBuckets).Observe(skew)
		}
	}
}

// drainMorsel runs morsel m on a worker, charging counters, and takes
// every batch the worker emits with handOff: the batches travel to the
// coordinator as they are, and the worker goes on filling fresh pooled
// ones. An error ends the morsel; the batches emitted before it are
// returned with it, as the serial operator would have emitted them.
//
//qo:hotpath
func drainMorsel(w morselWorker, m int, counters *cost.Counters) ([]*Batch, error) {
	w.seek(m, counters)
	// A morsel spans MorselSize/BatchSize windows, and every worker emits
	// at most one batch per window.
	batches := make([]*Batch, 0, MorselSize/BatchSize)
	for {
		b, err := w.Next()
		if b == nil || err != nil {
			return batches, err
		}
		batches = append(batches, w.handOff())
	}
}

// putBatches returns every batch of a list to the pool.
func putBatches(bs []*Batch) {
	for _, b := range bs {
		putBatch(b)
	}
}
