package engine

// Morsel-driven parallelism for the leaf scans. A morselizable source
// splits its streaming work into fixed-size contiguous morsels that an
// Exchange worker pool consumes; the blocking Open-phase work (catalog
// resolution, index seeks, RID intersection) stays on the coordinator and
// is charged to the shared counters exactly once, just as the serial
// operator's Open would charge it.
//
// Counter exactness is the load-bearing property: a full parallel drain
// must produce byte-identical cost.Counters to the serial pipeline. That
// holds because every per-morsel charge is tiling-invariant:
//
//   - SeqScan charges pages whose first tuple falls inside the current
//     row window; morsel boundaries are multiples of BatchSize, so the
//     windows are exactly the serial pipeline's windows, merely
//     partitioned across workers.
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
// multiple of BatchSize so parallel sub-batch windows coincide with the
// serial pipeline's windows, which is what keeps the per-window page
// charges byte-identical under any partitioning.
const MorselSize = 4 * BatchSize

// morselSource is implemented by nodes whose streaming phase can be
// partitioned into morsels. openMorsels performs the serial operator's
// blocking Open work — charged to the shared counters on the coordinator
// — and returns a runner over the remaining row-fetch work. dop is the
// worker count the Exchange will run; leaf scans ignore it, while
// HashJoin uses it to partition its build across that many workers before
// the probe morsels start.
type morselSource interface {
	Node
	openMorsels(ctx *Context, counters *cost.Counters, dop int) (morselRunner, error)
}

// morselRunner partitions a source's streaming work into numMorsels
// contiguous morsels. newWorker returns an independent worker context;
// workers run disjoint morsels concurrently, each charging its own
// counters (bound predicates carry per-evaluation scratch, so every
// worker binds its own copy).
type morselRunner interface {
	numMorsels() int
	newWorker() (morselWorker, error)
}

// morselWorker processes single morsels. runMorsel charges the morsel's
// page and tuple work into counters and returns the surviving rows,
// freshly cloned (they outlive the worker's scratch batch). release
// returns worker-owned scratch to the batch pool.
type morselWorker interface {
	runMorsel(m int, counters *cost.Counters) ([]value.Row, error)
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

// --- SeqScan ---

// openMorsels implements morselSource. The serial SeqScan charges nothing
// at Open; the filter is bound once here so malformed predicates fail at
// Open exactly as they do serially.
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
	// row-id windows, each inside one surviving shard. The Exchange's
	// merge-by-morsel-index therefore reproduces global row-id order.
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
			return nil, err
		}
	}
	return w, nil
}

type seqMorselWorker struct {
	r    *seqMorselRunner
	pred *expr.Bound
	enc  *encScan
	out  *Batch
	sel  []int
}

// runMorsel loads, filters, and clones out the morsel's surviving rows.
// Survivors are copied into arena slabs rather than one allocation per
// row, so a full drain allocates per slab, not per tuple.
//
//qo:hotpath
func (w *seqMorselWorker) runMorsel(m int, counters *cost.Counters) ([]value.Row, error) {
	t := w.r.t
	lo, hi := w.r.morsels[m].lo, w.r.morsels[m].hi
	var rows []value.Row
	var arena []value.Value
	for next := lo; next < hi; {
		end := min(next+BatchSize, hi)
		if w.enc != nil {
			// Encoded columnar window — identical counters to the row path.
			if err := w.enc.window(w.out, w.pred, next, end, counters); err != nil {
				//qo:alloc-ok error path, cold
				return nil, fmt.Errorf("engine: SeqScan(%s): %v", w.r.node.Table, err)
			}
			rows, arena = appendArenaRows(rows, arena, w.out)
			next = end
			continue
		}
		w.out.Reset()
		// Column-wise bulk load of the row window [next, end) — the same
		// windows, charges, and filter evaluation as seqScanOp.Next.
		for c, tc := range w.r.cols {
			w.out.cols[c] = t.AppendColumn(w.out.cols[c], tc, next, end)
		}
		w.out.n = end - next
		const per = storage.TuplesPerPage
		counters.SeqPages += int64((end+per-1)/per - (next+per-1)/per)
		counters.Tuples += int64(end - next)
		w.sel = identSel(w.sel, w.out.Len())
		keep, err := w.pred.EvalBatch(w.out.Cols(), w.sel)
		if err != nil {
			//qo:alloc-ok error path, cold
			return nil, fmt.Errorf("engine: SeqScan(%s): %v", w.r.node.Table, err)
		}
		w.out.Gather(keep)
		rows, arena = appendArenaRows(rows, arena, w.out)
		next = end
	}
	return rows, nil
}

func (w *seqMorselWorker) release() {
	putBatch(w.out)
	w.out = nil
}

// --- RID-list scans (IndexRangeScan, IndexIntersect) ---

// openMorsels implements morselSource: the index seek happens here, on
// the coordinator, with the same charges as the serial Open.
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
// happen here, on the coordinator, with the same charges as the serial
// Open.
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
	r    *ridMorselRunner
	pred *expr.Bound
	out  *Batch
	buf  value.Row
	sel  []int
}

// runMorsel fetches, filters, and clones out the morsel's surviving
// rows, copying survivors into arena slabs exactly as the SeqScan worker
// does.
//
//qo:hotpath
func (w *ridMorselWorker) runMorsel(m int, counters *cost.Counters) ([]value.Row, error) {
	rids := w.r.rids
	lo := m * MorselSize
	hi := min(lo+MorselSize, len(rids))
	var rows []value.Row
	var arena []value.Value
	for next := lo; next < hi; {
		end := min(next+BatchSize, hi)
		w.out.Reset()
		for _, rid := range rids[next:end] {
			counters.RandPages++
			counters.Tuples++
			w.r.t.ReadRowCols(int(rid), w.r.cols, w.buf)
			w.out.AppendRow(w.buf)
		}
		w.sel = identSel(w.sel, w.out.Len())
		keep, err := w.pred.EvalBatch(w.out.Cols(), w.sel)
		if err != nil {
			//qo:alloc-ok error path, cold
			return nil, fmt.Errorf("engine: %s: %v", w.r.errCtx, err)
		}
		w.out.Gather(keep)
		rows, arena = appendArenaRows(rows, arena, w.out)
		next = end
	}
	return rows, nil
}

func (w *ridMorselWorker) release() {
	putBatch(w.out)
	w.out = nil
}
