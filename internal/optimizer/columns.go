package optimizer

import (
	"robustqo/internal/engine"
	"robustqo/internal/expr"
)

// projectColumns narrows every base-table leaf of the finished plan to
// the columns the query references anywhere: the predicate, the group
// keys, the aggregate arguments, the sort keys, the projection, and both
// sides of every foreign-key join edge. Every operator above the leaves
// resolves its columns by name, so a leaf that outputs a superset of the
// names its ancestors use changes no result; the set is deliberately an
// over-approximation and needs no per-operator propagation rule.
//
// Only wall clock moves. Counters charge pages and tuples by the
// row-store formula whatever columns are read, so neither the cost model
// nor the plan choice can see the pass, and Describe leaves Cols out so
// EXPLAIN, plan-cache entries and ledger fingerprints are unchanged.
// Leaves are narrowed in place: the estimates map is keyed by node
// pointer.
func (p *planner) projectColumns(root engine.Node) {
	q := p.a.q
	if len(q.Project) == 0 && len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		return // SELECT *: every column reaches the result
	}
	cols, ok := p.referencedColumns()
	if !ok {
		return
	}
	narrowLeaves(root, cols)
}

// referencedColumns maps each query table to the ascending ordinals of
// its referenced columns (an empty, non-nil slice when none is). An
// unqualified name keeps the column in every table that has it, so an
// ambiguous reference stays ambiguous. ok is false when some reference
// names no column of the query's tables; the plan then keeps full-width
// leaves, so the error it raises at execution reads exactly as before.
func (p *planner) referencedColumns() (map[string][]int, bool) {
	q := p.a.q
	var refs []expr.ColumnRef
	refs = append(refs, expr.Columns(q.Pred)...)
	refs = append(refs, q.GroupBy...)
	for _, a := range q.Aggs {
		refs = append(refs, expr.Columns(a.Arg)...)
	}
	for _, k := range q.OrderBy {
		refs = append(refs, k.Col)
	}
	refs = append(refs, q.Project...)
	for _, e := range p.a.edges {
		refs = append(refs,
			expr.ColumnRef{Table: p.a.tables[e.child], Column: e.fkCol},
			expr.ColumnRef{Table: p.a.tables[e.parent], Column: e.pkCol})
	}

	cat := p.opt.Ctx.DB.Catalog
	keep := make([][]bool, len(p.a.tables))
	for i, name := range p.a.tables {
		s, _ := cat.Table(name)
		keep[i] = make([]bool, len(s.Columns))
	}
	for _, ref := range refs {
		found := false
		for i, name := range p.a.tables {
			if ref.Table != "" && ref.Table != name {
				continue
			}
			s, _ := cat.Table(name)
			if c := s.ColumnIndex(ref.Column); c >= 0 {
				keep[i][c] = true
				found = true
			}
		}
		if !found {
			return nil, false
		}
	}
	out := make(map[string][]int, len(p.a.tables))
	for i, name := range p.a.tables {
		ords := []int{}
		for c, k := range keep[i] {
			if k {
				ords = append(ords, c)
			}
		}
		out[name] = ords
	}
	return out, true
}

// narrowLeaves sets Cols on every base-table leaf under root. A
// StarSemiJoin and its dimension arms stay full width: its fact fetch has
// no column list, and the strategy only wins when few fact rows survive,
// so there is little to save.
func narrowLeaves(root engine.Node, cols map[string][]int) {
	engine.Walk(root, func(n engine.Node) bool {
		switch t := n.(type) {
		case *engine.SeqScan:
			t.Cols = cols[t.Table]
		case *engine.IndexRangeScan:
			t.Cols = cols[t.Table]
		case *engine.IndexIntersect:
			t.Cols = cols[t.Table]
		case *engine.INLJoin:
			t.InnerCols = cols[t.InnerTable]
		case *engine.StarSemiJoin:
			return false
		}
		return true
	})
}
