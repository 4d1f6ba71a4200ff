package main

// Differential test for projection pushdown: the optimizer narrows every
// base-table leaf to the columns the query references (SeqScan.Cols,
// IndexRangeScan.Cols, IndexIntersect.Cols, INLJoin.InnerCols). Running
// the same plan with every column list cleared back to nil — full-width
// leaves — must give byte-identical rows and cost.Counters, the same
// EXPLAIN text, and the same error when the query is malformed.

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/star"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

// pushdownNamed are the edge cases over the TPC-H-like schema, each with
// the widths its lineitem leaf must get (-1: no lineitem leaf check).
var pushdownNamed = []struct {
	name string
	sql  string
	// lineitemCols is the expected column count of the lineitem leaf;
	// -1 means full width (nil Cols).
	lineitemCols int
}{
	{"zero-width/lineitem", "SELECT COUNT(*) AS n FROM lineitem", 0},
	{"zero-width/lineitem-orders", "SELECT COUNT(*) AS n FROM lineitem, orders", 1},
	{"zero-width/lineitem-orders-part", "SELECT COUNT(*) AS n FROM lineitem, orders, part", 2},
	{"select-star", "SELECT * FROM lineitem WHERE l_quantity < 3", -1},
	{"order-by-dropped-column", "SELECT l_id FROM lineitem WHERE l_quantity < 20 ORDER BY l_extendedprice DESC LIMIT 40", 3},
}

// optimizerShapes re-expresses the optimizer's randomized oracle corpus
// (date windows on ship and receipt dates, a price cut, an optional part
// join with a size filter) over the TPC-H-like schema, under the select
// forms the projection pass distinguishes. Window widths span days to
// a year, so the plans cover index range scans, index intersections and
// indexed nested loops as well as sequential scans.
func optimizerShapes(n int) []string {
	rng := rand.New(rand.NewPCG(12, 2005))
	day := func(offset int) string {
		return time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, offset).Format("2006-01-02")
	}
	window := func(col string) string {
		lo := rng.IntN(2200)
		width := []int{4, 40, 400}[rng.IntN(3)]
		return fmt.Sprintf("%s BETWEEN DATE '%s' AND DATE '%s'", col, day(lo), day(lo+rng.IntN(width)))
	}
	var qs []string
	for i := 0; i < n; i++ {
		var terms []string
		if rng.IntN(2) == 0 {
			terms = append(terms, window("l_shipdate"))
		}
		if rng.IntN(2) == 0 {
			terms = append(terms, window("l_receiptdate"))
		}
		if rng.IntN(3) == 0 {
			terms = append(terms, fmt.Sprintf("l_extendedprice < %d", 1000+rng.IntN(60000)))
		}
		from := "lineitem"
		if rng.IntN(2) == 0 {
			from = "lineitem, part"
			terms = append(terms, fmt.Sprintf("p_size < %d", rng.IntN(50)))
		}
		where := ""
		for j, term := range terms {
			if j == 0 {
				where = " WHERE " + term
			} else {
				where += " AND " + term
			}
		}
		switch i % 4 {
		case 0:
			qs = append(qs, "SELECT COUNT(*) AS n FROM "+from+where)
		case 1:
			qs = append(qs, "SELECT SUM(l_extendedprice) AS revenue FROM "+from+where)
		case 2:
			qs = append(qs, "SELECT l_id, l_quantity FROM "+from+where+" ORDER BY l_id LIMIT 30")
		default:
			qs = append(qs, "SELECT l_quantity, COUNT(*) AS n FROM "+from+where+" GROUP BY l_quantity")
		}
	}
	return qs
}

// pushdownVariant clones root with every SeqScan forced to mode and, when
// full is set, every column list cleared to nil. The cached tree itself
// is never touched.
func pushdownVariant(t *testing.T, root engine.Node, mode engine.ScanMode, full bool) engine.Node {
	t.Helper()
	clone, _, err := engine.Rebind(root, engine.RebindOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engine.Walk(clone, func(n engine.Node) bool {
		switch s := n.(type) {
		case *engine.SeqScan:
			s.Mode = mode
			if full {
				s.Cols = nil
			}
		case *engine.IndexRangeScan:
			if full {
				s.Cols = nil
			}
		case *engine.IndexIntersect:
			if full {
				s.Cols = nil
			}
		case *engine.INLJoin:
			if full {
				s.InnerCols = nil
			}
		}
		return true
	})
	return clone
}

// pushdownRun renders a plan's observable output — schema, rows and
// counters, or the error — streamed or through the materialized engine.
func pushdownRun(ctx *engine.Context, root engine.Node, materialized bool) string {
	var res *engine.Result
	var counters cost.Counters
	var err error
	if materialized {
		res, err = engine.ExecuteMaterialized(ctx, root, &counters)
		if err == nil {
			counters.Output += int64(len(res.Rows))
		}
	} else {
		res, counters, _, err = engine.Run(ctx, root)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%v|%v|%+v", res.Schema, res.Rows, counters)
}

// leafCols returns the table and column list of a base-table leaf (or
// an INLJoin's inner fetch); ok is false for every other node.
func leafCols(n engine.Node) (table string, cols []int, ok bool) {
	switch s := n.(type) {
	case *engine.SeqScan:
		return s.Table, s.Cols, true
	case *engine.IndexRangeScan:
		return s.Table, s.Cols, true
	case *engine.IndexIntersect:
		return s.Table, s.Cols, true
	case *engine.INLJoin:
		return s.InnerTable, s.InnerCols, true
	}
	return "", nil, false
}

// countNarrowed tallies, per node kind, the leaves whose column list the
// pass (or a hand-built plan) set.
func countNarrowed(root engine.Node, counts map[string]int) {
	engine.Walk(root, func(n engine.Node) bool {
		if _, cols, ok := leafCols(n); ok && cols != nil {
			counts[strings.TrimPrefix(fmt.Sprintf("%T", n), "*engine.")]++
		}
		return true
	})
}

// allScanModes are the SeqScan storage paths a comparison forces in turn.
var allScanModes = []engine.ScanMode{engine.ScanRows, engine.ScanEager, engine.ScanLate}

// comparePushdown runs the pruned plan and its full-width twin with every
// SeqScan forced to each of modes and fails on any difference. When
// materialized is set, the materialized engine (which has only the row
// path) is held to the same bar too.
func comparePushdown(t *testing.T, ctx *engine.Context, label string, root engine.Node, modes []engine.ScanMode, materialized bool) {
	t.Helper()
	for _, mode := range modes {
		pruned := pushdownVariant(t, root, mode, false)
		full := pushdownVariant(t, root, mode, true)
		if got, want := engine.Explain(pruned), engine.Explain(full); got != want {
			t.Errorf("%s mode=%s: EXPLAIN differs\npruned:\n%s\nfull:\n%s", label, mode, got, want)
		}
		if got, want := pushdownRun(ctx, pruned, false), pushdownRun(ctx, full, false); got != want {
			t.Errorf("%s mode=%s: pruned plan diverges\npruned: %.600s\nfull:   %.600s\n%s", label, mode, got, want, engine.Explain(root))
		}
		if materialized && mode == engine.ScanRows {
			if got, want := pushdownRun(ctx, pruned, true), pushdownRun(ctx, full, true); got != want {
				t.Errorf("%s mode=%s: materialized pruned plan diverges\npruned: %.600s\nfull:   %.600s", label, mode, got, want)
			}
		}
	}
}

// intersectPlans are hand-built narrowed index intersections: the
// robust estimator rarely prefers one on this data, and the magic
// estimator's uniform selectivity never does, so the optimizer alone
// would leave the RID path of IndexIntersect unexercised. Ordinals index
// the tpch lineitem schema (l_id 0, l_quantity 5, l_extendedprice 6).
func intersectPlans(dop int) []engine.Node {
	lo := tpch.ShipDateLo + 700
	leaf := func(cols []int, residual expr.Expr) engine.Node {
		var n engine.Node = &engine.IndexIntersect{
			Table: "lineitem",
			Ranges: []engine.KeyRange{
				{Column: "l_shipdate", Lo: lo, Hi: lo + 200},
				{Column: "l_receiptdate", Lo: lo + 190, Hi: lo + 400},
			},
			Residual: residual,
			Cols:     cols,
		}
		if dop > 1 {
			n = &engine.Exchange{Source: n, DOP: dop}
		}
		return n
	}
	return []engine.Node{
		&engine.Aggregate{Input: leaf([]int{}, nil), Aggs: []engine.AggSpec{{Func: engine.Count, As: "n"}}},
		&engine.Project{
			Input: leaf([]int{0, 5, 6}, expr.Cmp{Op: expr.LT, L: expr.TC("lineitem", "l_quantity"), R: expr.IntLit(30)}),
			Cols:  []expr.ColumnRef{{Column: "l_extendedprice"}, {Column: "l_id"}},
		},
	}
}

func TestProjectionPushdownIdentical(t *testing.T) {
	corpus := append(tpch.FeedbackCorpus(), optimizerShapes(16)...)
	// The named cases run twice, so their second round is served as
	// plan-cache hits.
	for range 2 {
		for _, c := range pushdownNamed {
			corpus = append(corpus, c.sql)
		}
	}
	for _, shards := range []int{1, 4} {
		ctx, opt, env := diffFixture(t, 20000, shards, 1)
		encs, err := colstore.BuildAll(ctx.DB)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Encodings = encs
		for _, dop := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("shards%d/dop%d", shards, dop), func(t *testing.T) {
				robust := *opt
				robust.MaxDOP = dop
				env := env
				env.DOP, env.Optimize = dop, robust.Optimize
				// A magic estimator that calls every predicate highly
				// selective steers the same corpus to index range scans,
				// indexed nested loops and star semijoins.
				rowsFor := func(table string) (int, bool) {
					tab, ok := ctx.DB.Table(table)
					if !ok {
						return 0, false
					}
					return tab.NumRows(), true
				}
				magic, err := optimizer.New(ctx, &core.MagicEstimator{Selectivity: 0.001, Catalog: ctx.DB.Catalog, RowsFor: rowsFor})
				if err != nil {
					t.Fatal(err)
				}
				magic.MaxDOP = dop
				cache := plancache.New(256, nil)
				outcomes := map[plancache.Outcome]int{}
				narrowed := map[string]int{}
				for qi, sqlText := range corpus {
					q, err := sqlparse.Parse(sqlText)
					if err != nil {
						t.Fatalf("q%d parse: %v", qi, err)
					}
					plan, outcome, err := cache.Plan(env, q)
					if err != nil {
						t.Fatalf("q%d (%s): %v", qi, sqlText, err)
					}
					outcomes[outcome]++
					countNarrowed(plan.Root, narrowed)
					label := fmt.Sprintf("q%d (%s, %v)", qi, sqlText, outcome)
					comparePushdown(t, ctx, label, plan.Root, allScanModes, dop == 1)

					// Magic selectivities ignore literals, so of the
					// plan-cache corpus's literal sweeps only the first two
					// rounds give the magic optimizer distinct plans.
					if qi >= 8 && qi < len(tpch.FeedbackCorpus()) {
						continue
					}
					q, err = sqlparse.Parse(sqlText)
					if err != nil {
						t.Fatal(err)
					}
					mplan, err := magic.Optimize(q)
					if err != nil {
						t.Fatalf("q%d (%s) magic: %v", qi, sqlText, err)
					}
					countNarrowed(mplan.Root, narrowed)
					// Its plans are there for the RID and inner-fetch paths,
					// which have no encoded variant.
					comparePushdown(t, ctx, "magic "+label, mplan.Root, allScanModes[:1], dop == 1)
				}
				for i, root := range intersectPlans(dop) {
					countNarrowed(root, narrowed)
					comparePushdown(t, ctx, fmt.Sprintf("intersect plan %d", i), root, allScanModes[:1], dop == 1)
				}
				for _, o := range []plancache.Outcome{plancache.Miss, plancache.Hit, plancache.Rebind} {
					if outcomes[o] == 0 {
						t.Errorf("outcomes %v: corpus never took the %v path", outcomes, o)
					}
				}
				for _, kind := range []string{"SeqScan", "IndexRangeScan", "IndexIntersect", "INLJoin"} {
					if narrowed[kind] == 0 {
						t.Errorf("narrowed leaves %v: no narrowed %s in the corpus", narrowed, kind)
					}
				}
			})
		}
	}
}

// TestProjectionPushdownNamedWidths pins the widths the pass gives the
// named edge cases: zero-width scans for COUNT(*) (only join keys
// survive on joins), full width for SELECT *, and a sort key the
// projection drops still loaded.
func TestProjectionPushdownNamedWidths(t *testing.T) {
	ctx, opt, _ := diffFixture(t, 4000, 1, 1)
	for _, c := range pushdownNamed {
		t.Run(c.name, func(t *testing.T) {
			q, err := sqlparse.Parse(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := opt.Optimize(q)
			if err != nil {
				t.Fatal(err)
			}
			checked := false
			engine.Walk(plan.Root, func(n engine.Node) bool {
				table, cols, _ := leafCols(n)
				if table != "lineitem" {
					return true
				}
				checked = true
				if c.lineitemCols < 0 {
					if cols != nil {
						t.Errorf("lineitem leaf narrowed to %v, want full width\n%s", cols, plan.Explain())
					}
					return true
				}
				if cols == nil || len(cols) != c.lineitemCols {
					t.Errorf("lineitem leaf outputs %v, want %d columns\n%s", cols, c.lineitemCols, plan.Explain())
				}
				return true
			})
			if !checked {
				t.Fatalf("no lineitem leaf in plan\n%s", plan.Explain())
			}
			comparePushdown(t, ctx, c.name, plan.Root, allScanModes, true)
		})
	}
}

// TestProjectionPushdownSharedNames runs the pass over the Experiment 3
// star schema, whose dimension tables share every column name. An
// unqualified name keeps its column in every query table that has it, so
// a name unique within the query is narrowed correctly and a name
// ambiguous within the query stays ambiguous: pruned and full-width plans
// fail with the same error. (Predicates qualify dimension columns: the
// fact synopsis joins every dimension, so an unqualified one is ambiguous
// to the estimator before any plan exists.)
func TestProjectionPushdownSharedNames(t *testing.T) {
	db, err := star.Generate(star.Config{FactRows: 20000, DimRows: 200, Dims: 3, JoinFraction: 0.05, Seed: 2005})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		t.Fatal(err)
	}
	syns, err := sample.BuildAll(db, 500, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewBayesEstimator(syns, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{1, 2} {
		opt, err := optimizer.New(ctx, est)
		if err != nil {
			t.Fatal(err)
		}
		opt.MaxDOP = dop
		for _, sqlText := range []string{
			"SELECT d_payload, f_id FROM fact, dim1 WHERE dim1.d_attr < 20 ORDER BY d_id LIMIT 50",
			"SELECT d_attr, COUNT(*) AS n FROM fact, dim2 WHERE f_measure1 < 500 GROUP BY d_attr",
			"SELECT COUNT(*) AS n FROM fact, dim1, dim2, dim3 WHERE dim1.d_attr < 20 AND dim2.d_attr < 20 AND dim3.d_attr < 20",
			"SELECT SUM(f_measure2) AS s FROM fact, dim1, dim2 WHERE dim1.d_attr < 20 AND dim2.d_payload < 100",
			"SELECT d_payload FROM fact, dim1, dim2 WHERE dim1.d_attr < 20",
		} {
			q, err := sqlparse.Parse(sqlText)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := opt.Optimize(q)
			if err != nil {
				t.Fatalf("%s: %v", sqlText, err)
			}
			comparePushdown(t, ctx, fmt.Sprintf("dop%d %s", dop, sqlText), plan.Root, allScanModes[:1], dop == 1)
		}
	}
	// The last query's unqualified d_payload names a column of both dim1
	// and dim2: it must stay an error, with the same text as before.
	q, err := sqlparse.Parse("SELECT d_payload FROM fact, dim1, dim2 WHERE dim1.d_attr < 20")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := pushdownRun(ctx, plan.Root, false); !strings.HasPrefix(got, "error:") {
		t.Errorf("ambiguous unqualified column executed: %.200s", got)
	}
}
