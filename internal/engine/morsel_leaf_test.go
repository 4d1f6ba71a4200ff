package engine

import (
	"testing"

	"robustqo/internal/expr"
	"robustqo/internal/testkit"
)

// TestLimitCountersPerLeaf pins the exact counters a LIMIT charges over
// every leaf shape: the serial scan stops after the window that fills
// the limit, so these figures are the window tiling itself — unpruned,
// pruned to one or two shards, over a RID list, and under a join probe.
func TestLimitCountersPerLeaf(t *testing.T) {
	_, ctx := partTestDB(t, 2000, 4, 20, 4)
	col := func(c string) expr.ColumnRef { return expr.ColumnRef{Table: "lineitem", Column: c} }
	leaves := []struct {
		name string
		node func() Node
		want map[int]string // LIMIT n -> counters
	}{
		{"seqscan", func() Node { return &SeqScan{Table: "lineitem"} }, map[int]string{
			1:    "seq=13 cpu=1024 out=1",
			1500: "seq=26 cpu=2048 out=1500",
			5000: "seq=64 cpu=5120 out=5000",
		}},
		{"seqscan-shard2", func() Node { return &SeqScan{Table: "lineitem", Partitions: []int{2}} }, map[int]string{
			1:    "seq=13 cpu=1024 out=1",
			1500: "seq=25 cpu=1999 out=1500",
			5000: "seq=25 cpu=1999 out=1999",
		}},
		{"seqscan-shards13-filter", func() Node {
			return &SeqScan{Table: "lineitem", Partitions: []int{1, 3}, Filter: testkit.Expr("l_ship > 90")}
		}, map[int]string{
			1:    "seq=39 cpu=3117 out=1",
			1500: "seq=50 cpu=4041 out=668",
			5000: "seq=50 cpu=4041 out=668",
		}},
		{"indexrange", func() Node {
			return &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 10, Hi: 80}}
		}, map[int]string{
			1:    "rand=1024 cpu=1024 seeks=1 entries=5804 out=1",
			1500: "rand=2048 cpu=2048 seeks=1 entries=5804 out=1500",
			5000: "rand=5120 cpu=5120 seeks=1 entries=5804 out=5000",
		}},
		{"indexrange-pruned", func() Node {
			return &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 10, Hi: 80}, Partitions: []int{1, 2}}
		}, map[int]string{
			1:    "rand=1024 cpu=1024 seeks=1 entries=5804 out=1",
			1500: "rand=2048 cpu=2048 seeks=1 entries=5804 out=1500",
			5000: "rand=4092 cpu=4092 seeks=1 entries=5804 out=4092",
		}},
		{"indexintersect", func() Node {
			return &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
				{Column: "l_ship", Lo: 0, Hi: 90}, {Column: "l_receipt", Lo: 5, Hi: 95},
			}}
		}, map[int]string{
			1:    "rand=1024 cpu=15589 seeks=2 entries=14565 out=1",
			1500: "rand=2048 cpu=16613 seeks=2 entries=14565 out=1500",
			5000: "rand=5120 cpu=19685 seeks=2 entries=14565 out=5000",
		}},
		{"hashjoin-pruned-probe", func() Node {
			return &HashJoin{
				Build:    &SeqScan{Table: "orders"},
				Probe:    &SeqScan{Table: "lineitem", Partitions: []int{1, 3}},
				BuildCol: expr.ColumnRef{Table: "orders", Column: "o_orderkey"},
				ProbeCol: col("l_orderkey"),
			}
		}, map[int]string{
			1:    "seq=38 cpu=4048 hb=2000 hp=1024 out=1",
			1500: "seq=51 cpu=6096 hb=2000 hp=2048 out=1500",
			5000: "seq=75 cpu=10082 hb=2000 hp=4041 out=4041",
		}},
	}
	for _, leaf := range leaves {
		for _, n := range []int{1, 1500, 5000} {
			_, c, _, err := Run(ctx, &Limit{N: n, Input: leaf.node()})
			if err != nil {
				t.Fatalf("%s LIMIT %d: %v", leaf.name, n, err)
			}
			if got := c.String(); got != leaf.want[n] {
				t.Errorf("%s LIMIT %d: counters %q, want %q", leaf.name, n, got, leaf.want[n])
			}
		}
	}
}

// TestBindErrorsWithZeroMorsels: a scan with nothing to read must still
// reject a filter or residual it cannot bind, at Open, serially and under
// an Exchange — the Exchange starts no worker for zero morsels, so the
// bind on the coordinator is the only one that runs.
func TestBindErrorsWithZeroMorsels(t *testing.T) {
	_, ctx := partTestDB(t, 200, 4, 20, 4)
	bad := testkit.Expr("nope = 1")
	leaves := map[string]Node{
		"seqscan-no-shards": &SeqScan{Table: "lineitem", Partitions: []int{}, Filter: bad},
		"indexrange-empty":  &IndexRangeScan{Table: "lineitem", Range: KeyRange{Column: "l_ship", Lo: 200, Hi: 300}, Residual: bad},
		"indexintersect-empty": &IndexIntersect{Table: "lineitem", Ranges: []KeyRange{
			{Column: "l_ship", Lo: 200, Hi: 300}, {Column: "l_receipt", Lo: 0, Hi: 50},
		}, Residual: bad},
	}
	for name, leaf := range leaves {
		for _, plan := range []Node{leaf, &Exchange{Source: leaf, DOP: 4}} {
			if _, _, _, err := Run(ctx, plan); err == nil {
				t.Errorf("%s: %s ran with an unbindable predicate", name, plan.Describe())
			}
		}
	}
}
