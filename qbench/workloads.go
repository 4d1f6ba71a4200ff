package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"robustqo/internal/stats"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// workload builds a bench from a seed. scale (1 in real runs) shrinks
// the data and the pass for tests.
type workload struct {
	build func(seed uint64, scale float64) (*bench, setupTimes, error)
}

var workloads = map[string]workload{
	"serve_mix":    {build: buildServeMix},
	"analytic":     {build: buildAnalytic},
	"robust_sweep": {build: buildRobustSweep},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 0 {
		return v
	}
	return 1
}

// rng wraps the repository's generator with the draws the query
// generators need.
type rng struct{ r *stats.RNG }

func newRNG(seed uint64) rng { return rng{stats.NewRNG(seed)} }

func (g rng) intn(n int) int { return int(g.r.Uint64() % uint64(n)) }

func (g rng) chance(p float64) bool { return g.r.Float64() < p }

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cum: make([]float64, n)}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cum[k] = total
	}
	for k := range z.cum {
		z.cum[k] /= total
	}
	return z
}

func (z zipf) draw(g rng) int {
	u := g.r.Float64()
	k := sort.SearchFloat64s(z.cum, u)
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return k
}

func date(d int64) string { return "DATE '" + value.FormatDate(d) + "'" }

// shuffle permutes qs in place.
func shuffle(g rng, qs []*query) {
	for i := len(qs) - 1; i > 0; i-- {
		j := g.intn(i + 1)
		qs[i], qs[j] = qs[j], qs[i]
	}
}

// serve_mix: the dashboard share is four templates in equal numbers,
// whose literals are Zipf-skewed over seed-drawn candidates, so the
// plan cache sees hits and rebinds. One query in five is ad hoc, from a
// grammar whose shapes far outnumber the 1024-entry cache, so the tail
// misses, is rejected, and evicts. The ad-hoc shapes are the same for
// every seed (shape k comes from k alone), and so are the data and the
// synopses; the seed draws every literal and the order. With seeded
// synopses, or with a few hot part keys, whole templates flip between
// an index and a scan plan from one seed to the next, which moves every
// metric by more than the bounds.
const (
	serveMixLines    = 60000
	serveMixPass     = 8000
	serveMixAdHocIn  = 5 // one query in this many is ad hoc
	serveMixDataSeed = 2005
	adHocShapeSeed   = 0xad0c
)

// dashLiterals are one seed's dashboard literal candidates: 3-day
// windows, Zipf(1.1) over 64 starts, and part keys, Zipf(0.6) over 1024.
// About a fifth of the keys fall in the synopsis and plan as scans.
type dashLiterals struct {
	starts []int64
	keys   []int
	zs, zk zipf
}

func newDashLiterals(g rng, span, parts int) *dashLiterals {
	d := &dashLiterals{starts: make([]int64, 64), keys: make([]int, 1024)}
	for i := range d.starts {
		d.starts[i] = tpch.ShipDateLo + int64(g.intn(span-30))
	}
	for i := range d.keys {
		d.keys[i] = g.intn(parts)
	}
	d.zs, d.zk = newZipf(len(d.starts), 1.1), newZipf(len(d.keys), 0.6)
	return d
}

func buildServeMix(seed uint64, scale float64) (*bench, setupTimes, error) {
	cfg := tpch.Config{Lines: scaled(serveMixLines, scale), ClusterDates: true, Seed: serveMixDataSeed}
	sys, st, err := buildServe(cfg, true, 1)
	if err != nil {
		return nil, st, err
	}
	g := newRNG(seed ^ 0x5e17e)
	parts := scaled(serveMixLines, scale) / 30
	if parts < 200 {
		parts = 200
	}
	span := int(tpch.ShipDateHi - tpch.ShipDateLo)
	lits := newDashLiterals(g, span, parts)
	n := scaled(serveMixPass, scale)
	pass := make([]*query, n)
	for i := range pass {
		var sql string
		if k := i / serveMixAdHocIn; i%serveMixAdHocIn == 0 {
			sql = adHocQuery(newRNG(adHocShapeSeed+uint64(k)*0x9e3779b97f4a7c15), g, span, parts)
		} else {
			sql = dashboardQuery(i%serveMixAdHocIn-1, g, lits)
		}
		pass[i] = &query{key: sql, mode: "t80"}
	}
	shuffle(g, pass)
	b := &bench{clients: 2, dop: 1, pass: pass, sys: sys}
	return b, st, nil
}

// dashboardQuery renders dashboard template t (0 to 3).
func dashboardQuery(t int, g rng, d *dashLiterals) string {
	lo := d.starts[d.zs.draw(g)]
	switch t {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) AS n, SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN %s AND %s",
			date(lo), date(lo+2))
	case 1:
		return fmt.Sprintf("SELECT l_id, l_quantity, l_extendedprice FROM lineitem WHERE l_partkey = %d", d.keys[d.zk.draw(g)])
	case 2:
		return fmt.Sprintf("SELECT l_id, l_shipdate, l_extendedprice FROM lineitem WHERE l_shipdate BETWEEN %s AND %s ORDER BY l_extendedprice DESC, l_id LIMIT 10",
			date(lo), date(lo+2))
	default:
		return fmt.Sprintf("SELECT l_quantity, COUNT(*) AS n FROM lineitem WHERE l_shipdate BETWEEN %s AND %s GROUP BY l_quantity",
			date(lo), date(lo+2))
	}
}

// adHocQuery draws one query from the ad-hoc grammar. shape draws the
// structure: a table set, a random subset and order of optional
// conjuncts on top of a selective ship-date window, and one of three
// output forms. lit draws every literal.
func adHocQuery(shape, lit rng, span, parts int) string {
	// Mostly lineitem alone: the joins scan all of orders or part, so
	// they are kept to a third of the tail.
	var tables []string
	switch r := shape.intn(20); {
	case r < 13:
		tables = []string{"lineitem"}
	case r < 16:
		tables = []string{"lineitem", "part"}
	case r < 19:
		tables = []string{"lineitem", "orders"}
	default:
		tables = []string{"lineitem", "orders", "part"}
	}
	has := func(t string) bool {
		for _, x := range tables {
			if x == t {
				return true
			}
		}
		return false
	}
	lo := tpch.ShipDateLo + int64(lit.intn(span-30))
	conj := []string{fmt.Sprintf("l_shipdate BETWEEN %s AND %s", date(lo), date(lo+2+int64(lit.intn(9))))}
	optional := []string{
		fmt.Sprintf("l_quantity < %d", 5+lit.intn(46)),
		fmt.Sprintf("l_extendedprice > %d", 1000+lit.intn(90000)),
		fmt.Sprintf("l_receiptdate > %s", date(lo+int64(lit.intn(20)))),
		fmt.Sprintf("l_partkey < %d", 1+lit.intn(parts)),
	}
	if has("orders") {
		optional = append(optional,
			fmt.Sprintf("o_totalprice < %d", 5000+lit.intn(95000)),
			fmt.Sprintf("o_orderdate > %s", date(tpch.ShipDateLo+int64(lit.intn(span)))))
	}
	if has("part") {
		optional = append(optional,
			fmt.Sprintf("p_size < %d", 2+lit.intn(49)),
			fmt.Sprintf("p_attr1 < %d", 1+lit.intn(tpch.PartAttrRange)))
	}
	for i := len(optional) - 1; i > 0; i-- {
		j := shape.intn(i + 1)
		optional[i], optional[j] = optional[j], optional[i]
	}
	for _, c := range optional {
		if shape.chance(0.4) {
			conj = append(conj, c)
		}
	}
	where := strings.Join(conj, " AND ")
	from := strings.Join(tables, ", ")

	switch shape.intn(3) {
	case 0: // aggregates
		aggs := []string{"COUNT(*) AS n", "SUM(l_extendedprice) AS revenue", "MIN(l_quantity) AS qmin",
			"MAX(l_extendedprice) AS pmax", "AVG(l_quantity) AS qavg"}
		if has("orders") {
			aggs = append(aggs, "SUM(o_totalprice) AS total")
		}
		if has("part") {
			aggs = append(aggs, "MAX(p_size) AS smax")
		}
		var sel []string
		for _, a := range aggs {
			if shape.chance(0.5) {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			sel = aggs[:1]
		}
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s", strings.Join(sel, ", "), from, where)
	case 1: // grouped count
		key := "l_quantity"
		if has("part") && shape.chance(0.5) {
			key = "p_size"
		}
		return fmt.Sprintf("SELECT %s, COUNT(*) AS n FROM %s WHERE %s GROUP BY %s", key, from, where, key)
	default: // projection, totally ordered by the unique l_id
		cols := []string{"l_quantity", "l_extendedprice", "l_shipdate", "l_partkey"}
		if has("orders") {
			cols = append(cols, "o_totalprice")
		}
		if has("part") {
			cols = append(cols, "p_size")
		}
		sel := []string{"l_id"}
		for _, c := range cols {
			if shape.chance(0.5) {
				sel = append(sel, c)
			}
		}
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s ORDER BY l_id LIMIT %d",
			strings.Join(sel, ", "), from, where, 5+shape.intn(20))
	}
}

// analytic: few templates with fixed literals, so after the warm-up
// pass the plan cache returns every plan without optimizing, and the
// seed changes only the data, the month windows and the order. The
// copies keep the mean query near 50 ms at DOP 2.
const analyticLines = 200000

func buildAnalytic(seed uint64, scale float64) (*bench, setupTimes, error) {
	cfg := tpch.Config{Lines: scaled(analyticLines, scale), Seed: seed}
	sys, st, err := buildServe(cfg, false, 2)
	if err != nil {
		return nil, st, err
	}
	g := newRNG(seed ^ 0xa7a1)
	var pass []*query
	add := func(copies int, format string, args ...any) {
		sql := fmt.Sprintf(format, args...)
		for i := 0; i < copies; i++ {
			pass = append(pass, &query{key: sql, mode: "t80"})
		}
	}
	for _, q := range []int{10, 20, 30, 40} {
		add(4, "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < %d", q)
	}
	for _, y := range []int{1993, 1995, 1997} {
		lo := value.DateFromCivil(y, 1+g.intn(12), 1)
		add(3, "SELECT SUM(l_extendedprice) AS revenue FROM lineitem WHERE l_shipdate BETWEEN %s AND %s", date(lo), date(lo+27))
	}
	for _, p := range []int{2500, 20000} {
		add(1, "SELECT COUNT(*) AS n FROM lineitem, orders WHERE o_totalprice < %d AND l_quantity >= 25", p)
	}
	for _, s := range []int{6, 16} {
		add(1, "SELECT COUNT(*) AS n FROM lineitem, orders, part WHERE p_size < %d AND l_quantity < 35", s)
	}
	for _, q := range []int{11, 26} {
		add(3, "SELECT l_id, l_partkey, l_quantity, l_extendedprice FROM lineitem WHERE l_quantity < %d AND l_extendedprice > 22000", q)
	}
	lo := value.DateFromCivil(1995, 1+g.intn(10), 1)
	add(1, "SELECT l_quantity, COUNT(*) AS n, SUM(o_totalprice) AS total FROM lineitem, orders WHERE o_orderdate BETWEEN %s AND %s GROUP BY l_quantity",
		date(lo), date(lo+60))
	shuffle(g, pass)
	b := &bench{clients: 1, dop: 2, pass: pass, sys: sys}
	return b, st, nil
}
