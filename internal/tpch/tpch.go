// Package tpch generates the TPC-H-like data used by Experiments 1 and 2
// of the paper: a lineitem fact table with correlated ship/receipt dates,
// an orders table, and a part table with a tunable correlated attribute
// pair.
//
// The paper ran against TPC-H at scale factor 1 (6,000,000 lineitem rows)
// on a commercial DBMS; this generator reproduces the two statistical
// properties the experiments depend on — date correlation for the
// two-predicate query, attribute correlation in part for the join query —
// at a configurable scale (DESIGN.md, substitutions table).
package tpch

import (
	"fmt"
	"sort"

	"robustqo/internal/catalog"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/optimizer"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/value"
)

// Date span covered by l_shipdate, mirroring TPC-H's 1992-01-01 through
// 1998-08-02 generation window.
var (
	ShipDateLo = value.DateFromCivil(1992, 1, 1)
	ShipDateHi = value.DateFromCivil(1998, 8, 2)
)

// MaxReceiptDelay is the largest l_receiptdate - l_shipdate gap, matching
// TPC-H's 1..30 day shipping delay. The delay drives the correlation the
// single-table experiment exploits.
const MaxReceiptDelay = 30

// Config controls generation.
type Config struct {
	// Lines is the number of lineitem rows (the paper's SF1 has 6e6).
	Lines int
	// Parts is the number of part rows; defaults to Lines/30 (min 200).
	Parts int
	// Orders is the number of orders rows; defaults to Lines/4 (min 1).
	Orders int
	// PartCorrelation is the fraction of part rows whose p_attr2 is set
	// equal to p_attr1 (Experiment 2's "correlated data distribution");
	// the rest draw p_attr2 independently. In [0, 1].
	PartCorrelation float64
	// Partitions, when > 1, range-partitions lineitem on l_shipdate into
	// that many equal-width date shards. Partitioned lineitem loses its
	// Ordered declaration: rows live in partition-major order, which is
	// not l_id order.
	Partitions int
	// ClusterDates lays lineitem out in l_shipdate order: the same
	// marginal date distribution, assigned to rows ascending. Real
	// warehouses are loaded roughly in ship order, which is what makes
	// per-segment zone maps selective; the default random layout leaves
	// every segment's date zone spanning the full range, so zone-map
	// skipping is inert on it. l_id stays sequential and l_orderkey keeps
	// its cyclic assignment, so the Ordered declarations are unaffected.
	ClusterDates bool
	// Seed makes generation reproducible.
	Seed uint64
}

func (c *Config) fill() error {
	if c.Lines <= 0 {
		return fmt.Errorf("tpch: Lines must be positive, got %d", c.Lines)
	}
	if c.PartCorrelation < 0 || c.PartCorrelation > 1 {
		return fmt.Errorf("tpch: PartCorrelation %g outside [0, 1]", c.PartCorrelation)
	}
	if c.Parts == 0 {
		c.Parts = c.Lines / 30
		if c.Parts < 200 {
			c.Parts = 200
		}
	}
	if c.Orders == 0 {
		c.Orders = c.Lines / 4
		if c.Orders < 1 {
			c.Orders = 1
		}
	}
	return nil
}

// PartAttrRange is the value range of p_attr1/p_attr2 (0..999); the
// Experiment-2 predicates select 20-wide windows (2% marginals).
const PartAttrRange = 1000

// PartWindow is the width of the Experiment-2 attribute windows.
const PartWindow = 20

// Generate builds the database.
func Generate(cfg Config) (*storage.Database, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	cat := catalog.NewCatalog()
	db := storage.NewDatabase(cat)
	part, err := db.CreateTable(&catalog.TableSchema{
		Name: "part",
		Columns: []catalog.Column{
			{Name: "p_partkey", Type: catalog.Int},
			{Name: "p_attr1", Type: catalog.Int},
			{Name: "p_attr2", Type: catalog.Int},
			{Name: "p_size", Type: catalog.Int},
		},
		PrimaryKey: "p_partkey",
		Ordered:    []string{"p_partkey"},
	})
	if err != nil {
		return nil, err
	}
	orders, err := db.CreateTable(&catalog.TableSchema{
		Name: "orders",
		Columns: []catalog.Column{
			{Name: "o_orderkey", Type: catalog.Int},
			{Name: "o_orderdate", Type: catalog.Date},
			{Name: "o_totalprice", Type: catalog.Float},
		},
		PrimaryKey: "o_orderkey",
		Ordered:    []string{"o_orderkey"},
	})
	if err != nil {
		return nil, err
	}
	lineSchema := &catalog.TableSchema{
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
		Foreign: []catalog.ForeignKey{
			{Column: "l_orderkey", RefTable: "orders"},
			{Column: "l_partkey", RefTable: "part"},
		},
		Indexes: []catalog.Index{
			{Name: "ix_l_shipdate", Column: "l_shipdate", Kind: catalog.NonClustered},
			{Name: "ix_l_receiptdate", Column: "l_receiptdate", Kind: catalog.NonClustered},
			{Name: "ix_l_partkey", Column: "l_partkey", Kind: catalog.NonClustered},
		},
		Ordered: []string{"l_id", "l_orderkey"},
	}
	if cfg.Partitions > 1 {
		spec := &catalog.PartitionSpec{
			Column: "l_shipdate", Kind: catalog.RangePartition, Partitions: cfg.Partitions,
		}
		span := ShipDateHi - ShipDateLo
		for b := 1; b < cfg.Partitions; b++ {
			spec.Bounds = append(spec.Bounds, ShipDateLo+span*int64(b)/int64(cfg.Partitions))
		}
		lineSchema.Partition = spec
		// Partition-major physical order is not l_id order; the merge-join
		// shortcut the Ordered declaration enables would be wrong.
		lineSchema.Ordered = nil
	}
	lineitem, err := db.CreateTable(lineSchema)
	if err != nil {
		return nil, err
	}

	rng := stats.NewRNG(cfg.Seed)
	partRNG := stats.NewSticky(rng.Split())
	for p := 0; p < cfg.Parts; p++ {
		a1 := int64(partRNG.Intn(PartAttrRange))
		a2 := a1
		if partRNG.Float64() >= cfg.PartCorrelation {
			a2 = int64(partRNG.Intn(PartAttrRange))
		}
		row := value.Row{
			value.Int(int64(p)),
			value.Int(a1),
			value.Int(a2),
			value.Int(int64(partRNG.Intn(50) + 1)),
		}
		if err := part.Append(row); err != nil {
			return nil, err
		}
	}
	if err := partRNG.Err(); err != nil {
		return nil, err
	}
	orderRNG := stats.NewSticky(rng.Split())
	dateSpan := int(ShipDateHi - ShipDateLo)
	for o := 0; o < cfg.Orders; o++ {
		row := value.Row{
			value.Int(int64(o)),
			value.Date(ShipDateLo + int64(orderRNG.Intn(dateSpan))),
			value.Float(1000 + orderRNG.Float64()*100000),
		}
		if err := orders.Append(row); err != nil {
			return nil, err
		}
	}
	if err := orderRNG.Err(); err != nil {
		return nil, err
	}
	lineRNG := stats.NewSticky(rng.Split())
	var ships []int64
	if cfg.ClusterDates {
		ships = make([]int64, cfg.Lines)
		for l := range ships {
			ships[l] = ShipDateLo + int64(lineRNG.Intn(dateSpan))
		}
		sort.Slice(ships, func(i, j int) bool { return ships[i] < ships[j] })
	}
	for l := 0; l < cfg.Lines; l++ {
		var ship int64
		if ships != nil {
			ship = ships[l]
		} else {
			ship = ShipDateLo + int64(lineRNG.Intn(dateSpan))
		}
		receipt := ship + 1 + int64(lineRNG.Intn(MaxReceiptDelay))
		row := value.Row{
			value.Int(int64(l)),
			value.Int(int64(l % cfg.Orders)), // clustered by order, like dbgen
			value.Int(int64(lineRNG.Intn(cfg.Parts))),
			value.Date(ship),
			value.Date(receipt),
			value.Int(int64(lineRNG.Intn(50) + 1)),
			value.Float(900 + lineRNG.Float64()*100000),
		}
		if err := lineitem.Append(row); err != nil {
			return nil, err
		}
	}
	if err := lineRNG.Err(); err != nil {
		return nil, err
	}
	return db, nil
}

// Experiment1Query builds the Section 6.2.1 template:
//
//	SELECT SUM(l_extendedprice) FROM lineitem
//	WHERE l_shipdate    BETWEEN '1997-07-01'       AND '1997-09-30'
//	  AND l_receiptdate BETWEEN '1997-07-01' + ?   AND '1997-09-30' + ?
//
// shift is the "?" parameter in days; it controls the overlap of the two
// windows and hence the joint selectivity, while both marginal
// selectivities stay constant.
func Experiment1Query(shift int64) *optimizer.Query {
	lo := value.DateFromCivil(1997, 7, 1)
	hi := value.DateFromCivil(1997, 9, 30)
	pred := expr.Conj(
		expr.Between{
			E:  expr.TC("lineitem", "l_shipdate"),
			Lo: expr.DateLit(lo),
			Hi: expr.DateLit(hi),
		},
		expr.Between{
			E:  expr.TC("lineitem", "l_receiptdate"),
			Lo: expr.DateLit(lo + shift),
			Hi: expr.DateLit(hi + shift),
		},
	)
	return &optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   pred,
		Aggs: []engine.AggSpec{
			{Func: engine.Sum, Arg: expr.TC("lineitem", "l_extendedprice"), As: "revenue"},
		},
	}
}

// Experiment1Predicate returns just the WHERE clause of the Experiment-1
// template, for selectivity measurement.
func Experiment1Predicate(shift int64) expr.Expr {
	return Experiment1Query(shift).Pred
}

// Experiment2Query builds the Section 6.2.2 template: the natural join
// lineitem ⋈ orders ⋈ part with a two-attribute selection on part whose
// window position x is the free parameter. Both part predicates keep a
// fixed 2% marginal selectivity; sliding x from 0 (aligned with the
// p_attr1 window, maximal correlation) past PartWindow (disjoint) sweeps
// the joint selectivity downward.
func Experiment2Query(x int64) *optimizer.Query {
	pred := expr.Conj(
		expr.Cmp{Op: expr.LT, L: expr.TC("part", "p_attr1"), R: expr.IntLit(PartWindow)},
		expr.Between{
			E:  expr.TC("part", "p_attr2"),
			Lo: expr.IntLit(x),
			Hi: expr.IntLit(x + PartWindow - 1),
		},
	)
	return &optimizer.Query{
		Tables: []string{"lineitem", "orders", "part"},
		Pred:   pred,
		Aggs: []engine.AggSpec{
			{Func: engine.Sum, Arg: expr.TC("lineitem", "l_extendedprice"), As: "revenue"},
			{Func: engine.Count, As: "n"},
		},
	}
}

// FeedbackCorpus is the deterministic 40-query SQL workload the ledger
// run, the serve load benchmark and the differential tests execute:
// four SPJ shapes — single-table range aggregate, date-window scan,
// two-way join, three-way join — cycled with literals swept across
// magnitude bins, so recurring predicate shapes accumulate feedback and
// share a plan-cache template while distinct bins stay distinct
// fingerprints and bindings.
func FeedbackCorpus() []string {
	months := []string{"01", "03", "05", "07", "09"}
	var qs []string
	for i := 0; i < 40; i++ {
		v := i / 4
		switch i % 4 {
		case 0:
			qs = append(qs, fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < %d", 3+v*5))
		case 1:
			m := months[v%len(months)]
			qs = append(qs, fmt.Sprintf(
				"SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN DATE '199%d-%s-01' AND DATE '199%d-%s-28'",
				3+v%5, m, 3+v%5, m))
		case 2:
			qs = append(qs, fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM lineitem, orders WHERE o_totalprice < %d AND l_quantity >= %d",
				2000+v*9000, 10+v))
		case 3:
			qs = append(qs, fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM lineitem, orders, part WHERE p_size < %d AND l_quantity < %d",
				5+v*4, 45-v*2))
		}
	}
	return qs
}
