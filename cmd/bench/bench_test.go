package main

import (
	"slices"
	"strings"
	"testing"

	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/expr"
	"robustqo/internal/tpch"
)

// reversed returns its input's rows in reverse order: the same rows and
// counters, a different order.
type reversed struct{ engine.Node }

func (r reversed) Execute(ctx *engine.Context, c *cost.Counters) (*engine.Result, error) {
	res, err := r.Node.Execute(ctx, c)
	if err == nil {
		slices.Reverse(res.Rows)
	}
	return res, err
}

// extraPage charges one sequential page more than its input: the same
// rows, different counters.
type extraPage struct{ engine.Node }

func (e extraPage) Execute(ctx *engine.Context, c *cost.Counters) (*engine.Result, error) {
	res, err := e.Node.Execute(ctx, c)
	c.SeqPages++
	return res, err
}

func TestIdentity(t *testing.T) {
	_, ctx, _, err := setup(tpch.Config{Lines: 3000, Seed: 2005}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := expr.Parse("l_quantity >= 30")
	if err != nil {
		t.Fatal(err)
	}
	scan := func() engine.Node { return &engine.SeqScan{Table: "lineitem", Filter: pred} }
	for _, tc := range []struct {
		name                   string
		other                  engine.Node
		sameRows, sameCounters bool
	}{
		{"exchange dop2", exchange(scan(), 2), true, true},
		{"exchange dop4", exchange(scan(), 4), true, true},
		{"reordered rows", reversed{scan()}, false, true},
		{"different counters", extraPage{scan()}, true, false},
	} {
		rows, sameRows, sameCounters, err := identity(ctx, scan(), tc.other)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rows < 2 {
			t.Fatalf("%s: %d rows; the test needs at least 2 to reorder", tc.name, rows)
		}
		if sameRows != tc.sameRows || sameCounters != tc.sameCounters {
			t.Errorf("%s: sameRows=%v sameCounters=%v, want %v %v",
				tc.name, sameRows, sameCounters, tc.sameRows, tc.sameCounters)
		}
	}
}

func TestCheckWaivesOnlyClockGatesBelowMinCPUs(t *testing.T) {
	gates := []gate{
		{name: "clock", clock: true, fail: "slow"},
		{name: "exact", fail: "wrong"},
		{name: "fine", ok: true},
	}
	waived, err := check(gates, minClockCPUs-1)
	if !slices.Equal(waived, []string{"clock"}) {
		t.Errorf("below %d CPUs waived %v, want [clock]", minClockCPUs, waived)
	}
	if err == nil || !strings.Contains(err.Error(), "gate exact: wrong") || strings.Contains(err.Error(), "slow") {
		t.Errorf("below %d CPUs err = %v, want only the exact gate", minClockCPUs, err)
	}

	waived, err = check(gates, minClockCPUs)
	if len(waived) != 0 {
		t.Errorf("at %d CPUs waived %v, want none", minClockCPUs, waived)
	}
	if err == nil || !strings.Contains(err.Error(), "gate exact: wrong") || !strings.Contains(err.Error(), "gate clock: slow") {
		t.Errorf("at %d CPUs err = %v, want both failed gates", minClockCPUs, err)
	}

	if waived, err := check(gates[2:], 1); len(waived) != 0 || err != nil {
		t.Errorf("passing gate: waived %v, err %v", waived, err)
	}
}

func TestPick(t *testing.T) {
	all, err := pick(nil)
	if err != nil || len(all) != 6 {
		t.Fatalf("pick() = %d benches, %v; want all 6", len(all), err)
	}
	some, err := pick([]string{"serve", "join"})
	if err != nil || len(some) != 2 || some[0].name != "serve" || some[1].name != "join" {
		t.Fatalf("pick(serve, join) = %v, %v", some, err)
	}
	if _, err := pick([]string{"serve", "nope"}); err == nil {
		t.Fatal("pick accepted an unknown bench name")
	}
}
