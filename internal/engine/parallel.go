package engine

// Morsel-driven execution for the leaf scans. A morselizable source
// splits its streaming work into fixed-size contiguous morsels; the
// blocking Open-phase work (catalog resolution, index seeks, RID
// intersection) happens once in openMorsels and is charged to the shared
// counters there.
//
// The morsel worker is the only implementation of a scan's streaming
// phase. Serially, a scan's operator is one worker walking morsels
// 0..n-1 in order on the caller's counters (morselOp); under an Exchange,
// DOP workers claim the same morsels concurrently, each charging private
// counters merged at the barrier. Both run the same window loop, so
// counter exactness needs no second copy kept in step — only that every
// per-morsel charge is tiling-invariant:
//
//   - SeqScan charges pages whose first tuple falls inside the current
//     row window; morsels are tiled from each shard's base in MorselSize
//     steps, a multiple of BatchSize, so the windows are the same
//     whichever worker runs a morsel.
//   - RID fetches charge one random page and one tuple per RID, which is
//     independent of how the RID list is partitioned.
//
// int64 addition is commutative, so merging per-worker counters in any
// order reproduces the serial totals.

import (
	"fmt"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// MorselSize is the number of rows (or RIDs) one morsel covers. It is a
// multiple of BatchSize so every worker's windows coincide with the
// serial walk's windows, which is what keeps the per-window page charges
// byte-identical under any partitioning.
const MorselSize = 4 * BatchSize

// morselSource is implemented by nodes whose streaming phase can be
// partitioned into morsels. openMorsels performs the blocking Open work —
// charged to the shared counters on the caller — and returns a runner
// over the remaining row-fetch work. dop is the worker count that will
// run it; leaf scans ignore it, while HashJoin uses it to partition its
// build across that many workers before the probe morsels start.
type morselSource interface {
	Node
	openMorsels(ctx *Context, counters *cost.Counters, dop int) (morselRunner, error)
}

// morselRunner partitions a source's streaming work into numMorsels
// contiguous morsels. newWorker returns an independent worker; workers
// run disjoint morsels concurrently (bound predicates carry
// per-evaluation scratch, so every worker binds its own copy).
type morselRunner interface {
	numMorsels() int
	newWorker() (morselWorker, error)
}

// morselWorker is a batch cursor over one morsel at a time. seek
// positions it at the start of morsel m and charges all later work to
// counters; Next returns the morsel's next non-empty batch, or nil at the
// morsel's end. That batch is the worker's own output batch, valid until
// the next seek, Next or release — unless handOff gives it away.
//
// handOff returns the batch the last Next returned and takes a fresh one
// from batchPool for the next Next. The caller then owns the returned
// batch and must putBatch it when done: this is how an Exchange worker
// ships its output to the coordinator without copying it. release
// returns worker-owned scratch, including the current output batch, to
// the batch pool.
type morselWorker interface {
	seek(m int, counters *cost.Counters)
	Next() (*Batch, error)
	handOff() *Batch
	release()
}

// morselSourceOf unwraps instrumentation and reports whether a node can
// feed an Exchange worker pool.
func morselSourceOf(n Node) (morselSource, bool) {
	for {
		inst, ok := n.(*Instrumented)
		if !ok {
			break
		}
		n = inst.Inner
	}
	// A HashJoin is morselizable exactly when its probe side is: the
	// build is blocking Open-phase work either way. Checked before the
	// plain interface assertion so an ineligible probe disqualifies the
	// join instead of panicking later.
	if hj, ok := n.(*HashJoin); ok {
		if _, ok := morselSourceOf(hj.Probe); !ok {
			return nil, false
		}
		return hj, true
	}
	ms, ok := n.(morselSource)
	return ms, ok
}

// shardedRunner is implemented by runners that know which shard each
// morsel was tiled from; the Exchange uses it for the per-shard row-skew
// metric. Runners over unpartitioned sources simply don't implement it.
type shardedRunner interface {
	numShards() int
	shardOfMorsel(m int) int
}

// morselStatsFeeder is implemented by runners that bypass Instrumented
// wrappers inside their subtree (a HashJoin's probe runs through the
// worker pool, not through the probe node's own Stream). Exchange calls
// feedStats at its barrier so EXPLAIN ANALYZE still reports the bypassed
// operators' actual row counts.
type morselStatsFeeder interface {
	feedStats()
}

// morselOp is the serial operator of every leaf scan: one morsel worker
// walking morsels 0..n-1 in order on the caller's counters. It charges
// each window only as it is pulled, so a LIMIT above stops the scan
// after the window that fills it.
type morselOp struct {
	src      morselSource
	counters *cost.Counters
	w        morselWorker
	m, n     int
}

func (o *morselOp) Open(ctx *Context, counters *cost.Counters) error {
	r, err := o.src.openMorsels(ctx, counters, 1)
	if err != nil {
		return err
	}
	if o.w, err = r.newWorker(); err != nil {
		return err
	}
	o.counters, o.n = counters, r.numMorsels()
	if o.n > 0 {
		o.w.seek(0, counters)
	}
	return nil
}

func (o *morselOp) Next() (*Batch, error) {
	for o.m < o.n {
		if b, err := o.w.Next(); b != nil || err != nil {
			return b, err
		}
		if o.m++; o.m < o.n {
			o.w.seek(o.m, o.counters)
		}
	}
	return nil, nil
}

func (o *morselOp) Close() {
	if o.w != nil {
		o.w.release()
		o.w = nil
	}
}

// --- SeqScan ---

// openMorsels implements morselSource. A SeqScan charges nothing at
// Open; the filter is bound here, on the caller, so a malformed predicate
// fails at Open even when there are no morsels to start a worker for.
func (s *SeqScan) openMorsels(ctx *Context, _ *cost.Counters, _ int) (morselRunner, error) {
	t, schema, cols, err := scanTable(ctx, s.Table, s.Cols)
	if err != nil {
		return nil, err
	}
	if _, err := bindFilter(s.Filter, schema); err != nil {
		return nil, err
	}
	morsels, shards := spanMorselsShards(scanSpans(t, s.Partitions))
	return &seqMorselRunner{
		node: s, t: t, schema: schema, cols: cols,
		spec:    prepareEncScan(ctx, t, cols, s),
		morsels: morsels, shards: shards,
	}, nil
}

type seqMorselRunner struct {
	node *SeqScan
	t    *storage.Table
	// spec is the shared encoded-scan plan, nil on the row path; each
	// worker derives its own mutable encScan state from it.
	spec   *encScanSpec
	schema expr.RelSchema
	cols   []int
	// morsels are the shard-major (shard, morsel) work units: ascending
	// row-id windows, each inside one surviving shard. Walking them in
	// order therefore reproduces global row-id order.
	morsels []rowSpan
	// shards[m] is the span (shard) index morsel m was tiled from.
	shards []int
}

func (r *seqMorselRunner) numMorsels() int { return len(r.morsels) }

// numShards and shardOfMorsel implement shardedRunner; shards are
// shard-major, so the last entry is the highest span index.
func (r *seqMorselRunner) numShards() int {
	if len(r.shards) == 0 {
		return 0
	}
	return r.shards[len(r.shards)-1] + 1
}

func (r *seqMorselRunner) shardOfMorsel(m int) int { return r.shards[m] }

func (r *seqMorselRunner) newWorker() (morselWorker, error) {
	pred, err := bindFilter(r.node.Filter, r.schema)
	if err != nil {
		return nil, err
	}
	w := &seqMorselWorker{r: r, pred: pred, out: getBatch(r.schema)}
	if r.spec != nil {
		if w.enc, err = r.spec.newState(r.schema); err != nil {
			putBatch(w.out)
			return nil, err
		}
	}
	return w, nil
}

type seqMorselWorker struct {
	r        *seqMorselRunner
	counters *cost.Counters
	pred     *expr.Bound
	enc      *encScan
	next, hi int
	out      *Batch
	sel      []int
}

func (w *seqMorselWorker) seek(m int, counters *cost.Counters) {
	w.next, w.hi = w.r.morsels[m].lo, w.r.morsels[m].hi
	w.counters = counters
}

// Next loads the morsel's next row window column-wise (or through the
// encoded path) and filters it in place.
//
//qo:hotpath
func (w *seqMorselWorker) Next() (*Batch, error) {
	for w.next < w.hi {
		next, end := w.next, min(w.next+BatchSize, w.hi)
		w.next = end
		if w.enc != nil {
			// Encoded columnar window: identical counters, filtered batch.
			if err := w.enc.window(w.out, w.pred, next, end, w.counters); err != nil {
				//qo:alloc-ok error path, cold
				return nil, fmt.Errorf("engine: SeqScan(%s): %v", w.r.node.Table, err)
			}
		} else {
			w.out.Reset()
			for c, tc := range w.r.cols {
				w.out.cols[c] = w.r.t.AppendColumn(w.out.cols[c], tc, next, end)
			}
			w.out.n = end - next
			// Pages whose first tuple falls inside the window are charged
			// now; across a full scan this sums to exactly NumPages.
			const per = storage.TuplesPerPage
			w.counters.SeqPages += int64((end+per-1)/per - (next+per-1)/per)
			w.counters.Tuples += int64(end - next)
			w.sel = identSel(w.sel, w.out.Len())
			keep, err := w.pred.EvalBatch(w.out.Cols(), w.sel)
			if err != nil {
				//qo:alloc-ok error path, cold
				return nil, fmt.Errorf("engine: SeqScan(%s): %v", w.r.node.Table, err)
			}
			w.out.Gather(keep)
		}
		if w.out.Len() > 0 {
			return w.out, nil
		}
	}
	return nil, nil
}

func (w *seqMorselWorker) handOff() *Batch {
	b := w.out
	w.out = getBatch(w.r.schema)
	return b
}

func (w *seqMorselWorker) release() {
	putBatch(w.out)
	w.out = nil
}

// --- RID-list scans (IndexRangeScan, IndexIntersect) ---

// openMorsels implements morselSource: the index seek happens here, once,
// charged to the caller's counters.
func (s *IndexRangeScan) openMorsels(ctx *Context, counters *cost.Counters, _ int) (morselRunner, error) {
	t, schema, cols, err := scanTable(ctx, s.Table, s.Cols)
	if err != nil {
		return nil, err
	}
	ix, ok := ctx.Indexes.Lookup(s.Table, s.Range.Column)
	if !ok {
		return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, s.Range.Column)
	}
	if _, err := bindFilter(s.Residual, schema); err != nil {
		return nil, err
	}
	counters.IndexSeeks++
	rids, scanned := ix.Range(s.Range.Lo, s.Range.Hi)
	counters.IndexEntries += int64(scanned)
	rids = pruneRids(t, s.Partitions, rids)
	return &ridMorselRunner{
		t: t, schema: schema, cols: cols, residual: s.Residual, rids: rids,
		errCtx: fmt.Sprintf("IndexRangeScan(%s)", s.Table),
	}, nil
}

// openMorsels implements morselSource: all probes and the intersection
// happen here, once, charged to the caller's counters.
func (s *IndexIntersect) openMorsels(ctx *Context, counters *cost.Counters, _ int) (morselRunner, error) {
	if len(s.Ranges) == 0 {
		return nil, fmt.Errorf("engine: IndexIntersect(%s) with no ranges", s.Table)
	}
	t, schema, cols, err := scanTable(ctx, s.Table, s.Cols)
	if err != nil {
		return nil, err
	}
	if _, err := bindFilter(s.Residual, schema); err != nil {
		return nil, err
	}
	lists := make([][]int32, len(s.Ranges))
	for i, r := range s.Ranges {
		ix, ok := ctx.Indexes.Lookup(s.Table, r.Column)
		if !ok {
			return nil, fmt.Errorf("engine: no index on %s.%s", s.Table, r.Column)
		}
		counters.IndexSeeks++
		rids, scanned := ix.Range(r.Lo, r.Hi)
		counters.IndexEntries += int64(scanned)
		counters.Tuples += int64(scanned) // intersection CPU
		lists[i] = rids
	}
	rids := pruneRids(t, s.Partitions, index.Intersect(lists...))
	return &ridMorselRunner{
		t: t, schema: schema, cols: cols, residual: s.Residual, rids: rids,
		errCtx: fmt.Sprintf("IndexIntersect(%s)", s.Table),
	}, nil
}

// ridMorselRunner partitions a RID list; each RID costs one random page
// and one tuple wherever it lands, so any partition sums to the serial
// charges.
type ridMorselRunner struct {
	t        *storage.Table
	schema   expr.RelSchema
	cols     []int
	residual expr.Expr
	rids     []int32
	errCtx   string
}

func (r *ridMorselRunner) numMorsels() int {
	return (len(r.rids) + MorselSize - 1) / MorselSize
}

func (r *ridMorselRunner) newWorker() (morselWorker, error) {
	pred, err := bindFilter(r.residual, r.schema)
	if err != nil {
		return nil, err
	}
	return &ridMorselWorker{
		r: r, pred: pred, out: getBatch(r.schema),
		buf: make(value.Row, len(r.cols)),
	}, nil
}

type ridMorselWorker struct {
	r        *ridMorselRunner
	counters *cost.Counters
	pred     *expr.Bound
	next, hi int
	out      *Batch
	buf      value.Row
	sel      []int
}

func (w *ridMorselWorker) seek(m int, counters *cost.Counters) {
	w.next = m * MorselSize
	w.hi = min(w.next+MorselSize, len(w.r.rids))
	w.counters = counters
}

// Next fetches and filters the morsel's next window of RIDs, charging
// one random page and one tuple per RID as the row is fetched.
//
//qo:hotpath
func (w *ridMorselWorker) Next() (*Batch, error) {
	for w.next < w.hi {
		end := min(w.next+BatchSize, w.hi)
		w.out.Reset()
		for _, rid := range w.r.rids[w.next:end] {
			w.counters.RandPages++
			w.counters.Tuples++
			w.r.t.ReadRowCols(int(rid), w.r.cols, w.buf)
			w.out.AppendRow(w.buf)
		}
		w.next = end
		w.sel = identSel(w.sel, w.out.Len())
		keep, err := w.pred.EvalBatch(w.out.Cols(), w.sel)
		if err != nil {
			//qo:alloc-ok error path, cold
			return nil, fmt.Errorf("engine: %s: %v", w.r.errCtx, err)
		}
		w.out.Gather(keep)
		if w.out.Len() > 0 {
			return w.out, nil
		}
	}
	return nil, nil
}

func (w *ridMorselWorker) handOff() *Batch {
	b := w.out
	w.out = getBatch(w.r.schema)
	return b
}

func (w *ridMorselWorker) release() {
	putBatch(w.out)
	w.out = nil
}
