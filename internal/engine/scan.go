package engine

import (
	"fmt"
	"strings"

	"robustqo/internal/cost"
	"robustqo/internal/expr"
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

// Stream implements Node: the scan's morsel worker run over every
// morsel in order.
func (s *SeqScan) Stream() Operator { return &morselOp{src: s} }

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

// Stream implements Node: the index seek at Open, then the RID fetches
// morsel by morsel, charged as each window is pulled.
func (s *IndexRangeScan) Stream() Operator { return &morselOp{src: s} }

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

// Stream implements Node: every probe and the intersection at Open,
// then the surviving RID fetches morsel by morsel.
func (s *IndexIntersect) Stream() Operator { return &morselOp{src: s} }

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
