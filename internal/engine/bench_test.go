package engine

import (
	"testing"

	"robustqo/internal/catalog"
	"robustqo/internal/cost"
	"robustqo/internal/expr"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/testkit"
	"robustqo/internal/value"
)

// benchPlan is a scan→filter→limit pipeline: the shape where streaming
// execution wins, since the materialized path pays for the whole table
// before the limit discards it.
func benchPlan(n int) Node {
	return &Limit{N: n, Input: &Filter{
		Input: &SeqScan{Table: "lineitem"},
		Pred:  expr.Cmp{Op: expr.GE, L: expr.C("l_ship"), R: expr.IntLit(0)},
	}}
}

// BenchmarkExecStreamVsMaterialize compares the streaming pipeline against
// the materialized reference engine on the same plans, reporting rows/sec
// and allocations. The limit10 pair is the headline: streaming touches one
// batch where materialization builds every intermediate result.
func BenchmarkExecStreamVsMaterialize(b *testing.B) {
	_, ctx := testDB(b, 2000, 3, 10) // 6000 lineitem rows
	run := func(b *testing.B, plan Node, stream bool) {
		b.Helper()
		b.ReportAllocs()
		var rows int64
		for i := 0; i < b.N; i++ {
			var c cost.Counters
			var res *Result
			var err error
			if stream {
				res, err = plan.Execute(ctx, &c)
			} else {
				res, err = ExecuteMaterialized(ctx, plan, &c)
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += int64(len(res.Rows))
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
	}
	for _, bc := range []struct {
		name string
		n    int
	}{
		{"limit10", 10},
		{"fulldrain", 1 << 30},
	} {
		plan := benchPlan(bc.n)
		b.Run(bc.name+"/stream", func(b *testing.B) { run(b, plan, true) })
		b.Run(bc.name+"/materialized", func(b *testing.B) { run(b, plan, false) })
		// The obs wrapper must stay within a few percent of the bare
		// streaming path; cmd/benchobs records the overhead in
		// BENCH_obs.json.
		b.Run(bc.name+"/stream-instrumented", func(b *testing.B) { run(b, Instrument(benchPlan(bc.n)), true) })
	}
}

// TestStreamLimitAllocsFarBelowMaterialized pins the issue's acceptance
// bar as a test: the streaming path under LIMIT 10 must allocate at least
// 10x less than the materialized path on the same plan.
func TestStreamLimitAllocsFarBelowMaterialized(t *testing.T) {
	_, ctx := testDB(t, 2000, 3, 10)
	plan := benchPlan(10)
	stream := testing.AllocsPerRun(10, func() {
		var c cost.Counters
		if _, err := plan.Execute(ctx, &c); err != nil {
			t.Fatal(err)
		}
	})
	mat := testing.AllocsPerRun(10, func() {
		var c cost.Counters
		if _, err := ExecuteMaterialized(ctx, plan, &c); err != nil {
			t.Fatal(err)
		}
	})
	if stream*10 > mat {
		t.Errorf("streaming LIMIT 10 allocated %.0f/run vs materialized %.0f/run; want >=10x reduction",
			stream, mat)
	}
}

// scanBenchDB builds a single 7-column lineitem table shaped like the
// TPC-H-like generator's, without indexes: the scan benchmark measures
// the column loads alone.
func scanBenchDB(b *testing.B, rows int) *Context {
	b.Helper()
	db := storage.NewDatabase(catalog.NewCatalog())
	lineitem, err := db.CreateTable(&catalog.TableSchema{
		Name: "lineitem",
		Columns: []catalog.Column{
			{Name: "l_id", Type: catalog.Int},
			{Name: "l_orderkey", Type: catalog.Int},
			{Name: "l_partkey", Type: catalog.Int},
			{Name: "l_shipdate", Type: catalog.Date},
			{Name: "l_receiptdate", Type: catalog.Date},
			{Name: "l_quantity", Type: catalog.Int},
			{Name: "l_extendedprice", Type: catalog.Float},
		},
		PrimaryKey: "l_id",
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(60)
	for i := 0; i < rows; i++ {
		ship := int64(testkit.Intn(rng, 2500))
		row := value.Row{
			value.Int(int64(i)),
			value.Int(int64(i / 4)),
			value.Int(int64(testkit.Intn(rng, 2000))),
			value.Date(ship),
			value.Date(ship + int64(testkit.Intn(rng, 30))),
			value.Int(int64(1 + testkit.Intn(rng, 50))),
			value.Float(float64(testkit.Intn(rng, 1000000)) / 100),
		}
		if err := lineitem.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	return &Context{DB: db, Model: cost.Default}
}

// BenchmarkScanColumns drains a filtered scan of 60K lineitem rows
// (l_quantity < 30, about 58% kept) outputting 1 of the table's 7 columns
// — the width the optimizer's projection pass gives SELECT COUNT(*) with
// that filter — and all 7. Both legs charge identical counters; the gap in
// ns/op, B/op and allocs/op is the saving of loading only the referenced
// columns.
func BenchmarkScanColumns(b *testing.B) {
	ctx := scanBenchDB(b, 60000)
	pred := expr.Cmp{Op: expr.LT, L: expr.C("l_quantity"), R: expr.IntLit(30)}
	for _, bc := range []struct {
		name string
		cols []int
	}{
		{"cols1of7", []int{5}},
		{"cols7of7", nil},
	} {
		plan := &SeqScan{Table: "lineitem", Filter: pred, Cols: bc.cols}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var c cost.Counters
				if _, err := plan.Execute(ctx, &c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
