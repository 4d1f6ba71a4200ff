package engine

import (
	"fmt"
	"strings"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/index"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// SeqScan reads every page of a table sequentially, applying an optional
// filter. Its cost is essentially independent of the filter's selectivity —
// it is the paper's archetypal "stable" plan.
type SeqScan struct {
	Table  string
	Filter expr.Expr // nil means no filter
	// Partitions, when non-nil, restricts the scan to the listed shards
	// of a partitioned table (the optimizer's pruning pass sets it). nil
	// scans everything; an empty list scans nothing.
	Partitions []int
	// Mode selects the storage path: the default row path, or the eager /
	// late-materializing encoded columnar paths (see colscan.go). The
	// optimizer's scan-strategy pass sets it when encodings are present.
	Mode ScanMode
	// Cols lists the table ordinals the scan outputs, ascending; nil
	// outputs every column. The optimizer's projection pass narrows it to
	// the columns the query references. Only the columns loaded change:
	// pages and tuples are charged as for a full-width scan.
	Cols []int
}

// Schema implements Node.
func (s *SeqScan) Schema(ctx *Context) (expr.RelSchema, error) {
	_, schema, err := leafSchema(ctx, s.Table, s.Cols)
	return schema, err
}

// Describe implements Node.
func (s *SeqScan) Describe() string {
	mode := ""
	if s.Mode != ScanRows {
		mode = ", columnar=" + s.Mode.String()
	}
	if s.Filter == nil {
		return fmt.Sprintf("SeqScan(%s%s%s)", s.Table, mode, partsSuffix(s.Partitions))
	}
	return fmt.Sprintf("SeqScan(%s, filter=%s%s%s)", s.Table, s.Filter, mode, partsSuffix(s.Partitions))
}

// Execute implements Node.
func (s *SeqScan) Execute(ctx *Context, counters *cost.Counters) (*Result, error) {
	return execStream(ctx, s, counters)
}

// Stream implements Node.
func (s *SeqScan) Stream() Operator { return &seqScanOp{node: s} }

// seqScanOp streams the heap a batch of rows at a time, charging each
// sequential page and tuple as it is actually read so a LIMIT above it
// stops the scan before the tail of the table is touched.
type seqScanOp struct {
	node     *SeqScan
	counters *cost.Counters
	t        *storage.Table
	pred     *expr.Bound
	cols     []int
	enc      *encScan
	spans    []rowSpan
	span     int
	next     int
	out      *Batch
	sel      []int
}

func (o *seqScanOp) Open(ctx *Context, counters *cost.Counters) error {
	t, schema, cols, err := scanTable(ctx, o.node.Table, o.node.Cols)
	if err != nil {
		return err
	}
	pred, err := bindFilter(o.node.Filter, schema)
	if err != nil {
		return err
	}
	if spec := prepareEncScan(ctx, t, cols, o.node); spec != nil {
		if o.enc, err = spec.newState(schema); err != nil {
			return err
		}
	}
	o.counters, o.t, o.pred, o.cols = counters, t, pred, cols
	o.spans = scanSpans(t, o.node.Partitions)
	o.out = getBatch(schema)
	return nil
}

// Next loads the next row window column-wise and filters it in place,
// walking the surviving shards' spans in global row-id order.
//
//qo:hotpath
func (o *seqScanOp) Next() (*Batch, error) {
	for o.span < len(o.spans) {
		s := o.spans[o.span]
		if o.next < s.lo {
			o.next = s.lo
		}
		if o.next >= s.hi {
			o.span++
			continue
		}
		end := o.next + BatchSize
		if end > s.hi {
			end = s.hi
		}
		if o.enc != nil {
			// Encoded columnar window: identical counters, filtered batch.
			if err := o.enc.window(o.out, o.pred, o.next, end, o.counters); err != nil {
				//qo:alloc-ok error path, cold
				return nil, fmt.Errorf("engine: SeqScan(%s): %v", o.node.Table, err)
			}
			o.next = end
			if o.out.Len() > 0 {
				return o.out, nil
			}
			continue
		}
		o.out.Reset()
		// Column-wise bulk load of the row window [next, end).
		for c, tc := range o.cols {
			o.out.cols[c] = o.t.AppendColumn(o.out.cols[c], tc, o.next, end)
		}
		o.out.n = end - o.next
		// Pages whose first tuple falls inside the window are charged now;
		// across a full scan this sums to exactly NumPages.
		const per = storage.TuplesPerPage
		o.counters.SeqPages += int64((end+per-1)/per - (o.next+per-1)/per)
		o.counters.Tuples += int64(end - o.next)
		o.next = end
		o.sel = identSel(o.sel, o.out.Len())
		keep, err := o.pred.EvalBatch(o.out.Cols(), o.sel)
		if err != nil {
			//qo:alloc-ok error path, cold
			return nil, fmt.Errorf("engine: SeqScan(%s): %v", o.node.Table, err)
		}
		o.out.Gather(keep)
		if o.out.Len() > 0 {
			return o.out, nil
		}
	}
	return nil, nil
}

func (o *seqScanOp) Close() {
	putBatch(o.out)
	o.out = nil
}

// KeyRange is one indexed range condition lo <= column <= hi over an Int
// or Date column.
type KeyRange struct {
	Column string
	Lo, Hi int64
}

func (k KeyRange) String() string {
	return fmt.Sprintf("%s in [%d, %d]", k.Column, k.Lo, k.Hi)
}

// IndexRangeScan probes a single secondary index for a key range, fetches
// the qualifying rows by RID (one random page read each), and applies an
// optional residual predicate.
type IndexRangeScan struct {
	Table    string
	Range    KeyRange
	Residual expr.Expr
	// Partitions, when non-nil, drops RIDs of pruned shards before any
	// row is fetched; the index seek itself stays global.
	Partitions []int
	// Cols lists the table ordinals the scan outputs, as in SeqScan.
	Cols []int
}

// Schema implements Node.
func (s *IndexRangeScan) Schema(ctx *Context) (expr.RelSchema, error) {
	_, schema, err := leafSchema(ctx, s.Table, s.Cols)
	return schema, err
}

// Describe implements Node.
func (s *IndexRangeScan) Describe() string {
	d := fmt.Sprintf("IndexRangeScan(%s, %s", s.Table, s.Range)
	if s.Residual != nil {
		d += ", residual=" + s.Residual.String()
	}
	return d + partsSuffix(s.Partitions) + ")"
}

// Execute implements Node.
func (s *IndexRangeScan) Execute(ctx *Context, counters *cost.Counters) (*Result, error) {
	return execStream(ctx, s, counters)
}

// Stream implements Node.
func (s *IndexRangeScan) Stream() Operator { return &indexRangeScanOp{node: s} }

// indexRangeScanOp seeks the index at Open (the probe is unavoidable) but
// defers the random-page fetches to Next, one batch of RIDs at a time.
type indexRangeScanOp struct {
	node  *IndexRangeScan
	fetch ridFetcher
}

func (o *indexRangeScanOp) Open(ctx *Context, counters *cost.Counters) error {
	t, schema, cols, err := scanTable(ctx, o.node.Table, o.node.Cols)
	if err != nil {
		return err
	}
	ix, ok := ctx.Indexes.Lookup(o.node.Table, o.node.Range.Column)
	if !ok {
		return fmt.Errorf("engine: no index on %s.%s", o.node.Table, o.node.Range.Column)
	}
	pred, err := bindFilter(o.node.Residual, schema)
	if err != nil {
		return err
	}
	counters.IndexSeeks++
	rids, scanned := ix.Range(o.node.Range.Lo, o.node.Range.Hi)
	counters.IndexEntries += int64(scanned)
	rids = pruneRids(t, o.node.Partitions, rids)
	o.fetch.init(counters, t, schema, cols, pred, rids, fmt.Sprintf("IndexRangeScan(%s)", o.node.Table))
	return nil
}

func (o *indexRangeScanOp) Next() (*Batch, error) { return o.fetch.nextBatch() }

func (o *indexRangeScanOp) Close() { o.fetch.release() }

// IndexIntersect is the paper's risky plan: probe one index per range
// condition, intersect the RID lists, fetch only the surviving rows (one
// random page read each), and apply an optional residual predicate. Very
// fast when few rows qualify; much slower than a scan when many do.
type IndexIntersect struct {
	Table    string
	Ranges   []KeyRange
	Residual expr.Expr
	// Partitions, when non-nil, drops RIDs of pruned shards after the
	// intersection, before any row is fetched.
	Partitions []int
	// Cols lists the table ordinals the scan outputs, as in SeqScan.
	Cols []int
}

// Schema implements Node.
func (s *IndexIntersect) Schema(ctx *Context) (expr.RelSchema, error) {
	_, schema, err := leafSchema(ctx, s.Table, s.Cols)
	return schema, err
}

// Describe implements Node.
func (s *IndexIntersect) Describe() string {
	parts := make([]string, len(s.Ranges))
	for i, r := range s.Ranges {
		parts[i] = r.String()
	}
	d := fmt.Sprintf("IndexIntersect(%s, %s", s.Table, strings.Join(parts, " & "))
	if s.Residual != nil {
		d += ", residual=" + s.Residual.String()
	}
	return d + partsSuffix(s.Partitions) + ")"
}

// Execute implements Node.
func (s *IndexIntersect) Execute(ctx *Context, counters *cost.Counters) (*Result, error) {
	return execStream(ctx, s, counters)
}

// Stream implements Node.
func (s *IndexIntersect) Stream() Operator { return &indexIntersectOp{node: s} }

// indexIntersectOp performs all index probes and the RID intersection at
// Open — that work is inherently blocking — then streams the surviving
// row fetches.
type indexIntersectOp struct {
	node  *IndexIntersect
	fetch ridFetcher
}

func (o *indexIntersectOp) Open(ctx *Context, counters *cost.Counters) error {
	if len(o.node.Ranges) == 0 {
		return fmt.Errorf("engine: IndexIntersect(%s) with no ranges", o.node.Table)
	}
	t, schema, cols, err := scanTable(ctx, o.node.Table, o.node.Cols)
	if err != nil {
		return err
	}
	pred, err := bindFilter(o.node.Residual, schema)
	if err != nil {
		return err
	}
	lists := make([][]int32, len(o.node.Ranges))
	for i, r := range o.node.Ranges {
		ix, ok := ctx.Indexes.Lookup(o.node.Table, r.Column)
		if !ok {
			return fmt.Errorf("engine: no index on %s.%s", o.node.Table, r.Column)
		}
		counters.IndexSeeks++
		rids, scanned := ix.Range(r.Lo, r.Hi)
		counters.IndexEntries += int64(scanned)
		counters.Tuples += int64(scanned) // intersection CPU
		lists[i] = rids
	}
	rids := pruneRids(t, o.node.Partitions, index.Intersect(lists...))
	o.fetch.init(counters, t, schema, cols, pred, rids, fmt.Sprintf("IndexIntersect(%s)", o.node.Table))
	return nil
}

func (o *indexIntersectOp) Next() (*Batch, error) { return o.fetch.nextBatch() }

func (o *indexIntersectOp) Close() { o.fetch.release() }

// ridFetcher streams the rows behind a RID list in batches, charging one
// random page and one tuple per RID as the row is actually fetched.
type ridFetcher struct {
	counters *cost.Counters
	t        *storage.Table
	cols     []int
	pred     *expr.Bound
	rids     []int32
	next     int
	out      *Batch
	buf      value.Row
	sel      []int
	errCtx   string
}

func (f *ridFetcher) init(counters *cost.Counters, t *storage.Table, schema expr.RelSchema, cols []int, pred *expr.Bound, rids []int32, errCtx string) {
	f.counters, f.t, f.cols, f.pred, f.rids, f.errCtx = counters, t, cols, pred, rids, errCtx
	f.out = getBatch(schema)
	f.buf = make(value.Row, len(cols))
}

// release returns the fetcher's batch to the pool; owners call it from
// Close.
func (f *ridFetcher) release() {
	putBatch(f.out)
	f.out = nil
}

// nextBatch materializes and filters the next window of the RID list.
//
//qo:hotpath
func (f *ridFetcher) nextBatch() (*Batch, error) {
	for f.next < len(f.rids) {
		end := f.next + BatchSize
		if end > len(f.rids) {
			end = len(f.rids)
		}
		f.out.Reset()
		for _, rid := range f.rids[f.next:end] {
			f.counters.RandPages++
			f.counters.Tuples++
			f.t.ReadRowCols(int(rid), f.cols, f.buf)
			f.out.AppendRow(f.buf)
		}
		f.next = end
		f.sel = identSel(f.sel, f.out.Len())
		keep, err := f.pred.EvalBatch(f.out.Cols(), f.sel)
		if err != nil {
			//qo:alloc-ok error path, cold
			return nil, fmt.Errorf("engine: %s: %v", f.errCtx, err)
		}
		f.out.Gather(keep)
		if f.out.Len() > 0 {
			return f.out, nil
		}
	}
	return nil, nil
}

// fetchFiltered materializes the cols of the rows behind rids and keeps
// those passing the (already bound) predicate. Used by the materialized
// reference path.
func fetchFiltered(t *storage.Table, cols []int, rids []int32, pred *expr.Bound) ([]value.Row, error) {
	buf := make(value.Row, len(cols))
	var rows []value.Row
	for _, rid := range rids {
		t.ReadRowCols(int(rid), cols, buf)
		ok, err := pred.Eval(buf)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, buf.Clone())
		}
	}
	return rows, nil
}
