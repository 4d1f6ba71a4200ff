package main

// Differential tests for the serve-path plan cache: a plan served from
// the cache — whether a pure hit or a credible-interval re-bind — must
// compute byte-identical results (rows and cost counters) to a plan
// optimized cold for the same query. The corpus is the same 40-query
// workload `ledger run` executes, so all four shapes (range aggregate,
// date window, 2-way join, 3-way join) and their literal sweeps are
// covered; the sweep makes consecutive same-shape queries re-bind or
// reject rather than trivially hit.

import (
	"fmt"
	"testing"

	"robustqo/internal/colstore"
	"robustqo/internal/engine"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// diffFixture builds a database, context, optimizer, and cache env for
// one (partitions, dop) configuration.
func diffFixture(t *testing.T, lines, partitions, dop int) (*engine.Context, *optimizer.Optimizer, plancache.Env) {
	t.Helper()
	ctx, est, err := buildSystem(tpch.Config{Lines: lines, Partitions: partitions, Seed: 2005}, "robust", 0.8, 500)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		t.Fatal(err)
	}
	opt.MaxDOP = dop
	env := plancache.Env{
		Ctx: ctx,
		Est: est,
		DOP: dop,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) {
			return opt.Optimize(q)
		},
	}
	return ctx, opt, env
}

// runFingerprint executes a plan and renders its full observable output
// — schema, every row, and the cost counters — as one string.
func runFingerprint(t *testing.T, ctx *engine.Context, root engine.Node) string {
	t.Helper()
	res, counters, _, err := engine.Run(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%v|%v|%+v", res.Schema, res.Rows, counters)
}

func TestPlanCacheDifferentialCorpus(t *testing.T) {
	for _, cfg := range []struct {
		name              string
		partitions, lines int
		dop               int
	}{
		{"dop1", 1, 20000, 1},
		{"dop2", 1, 20000, 2},
		{"dop4-partitioned", 4, 20000, 4},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			ctx, opt, env := diffFixture(t, cfg.lines, cfg.partitions, cfg.dop)
			cache := plancache.New(256, nil)
			outcomes := map[plancache.Outcome]int{}
			for qi, sqlText := range tpch.FeedbackCorpus() {
				qCold, err := sqlparse.Parse(sqlText)
				if err != nil {
					t.Fatalf("q%d parse: %v", qi, err)
				}
				qCached, err := sqlparse.Parse(sqlText)
				if err != nil {
					t.Fatal(err)
				}
				coldPlan, err := opt.Optimize(qCold)
				if err != nil {
					t.Fatalf("q%d cold optimize: %v", qi, err)
				}
				want := runFingerprint(t, ctx, coldPlan.Root)

				cachedPlan, outcome, err := cache.Plan(env, qCached)
				if err != nil {
					t.Fatalf("q%d cache: %v", qi, err)
				}
				outcomes[outcome]++
				got := runFingerprint(t, ctx, cachedPlan.Root)
				if got != want {
					t.Errorf("q%d (%s, outcome %v): cached plan diverges from cold plan\ncold:   %s\ncached: %s",
						qi, sqlText, outcome, want, got)
				}
			}
			// The literal sweep must actually exercise the cached paths:
			// with 4 shapes × 10 bindings, only 4 optimizations are misses
			// and the rest are hits/rebinds/rejects.
			if outcomes[plancache.Miss] != 4 {
				t.Errorf("outcomes %v: want exactly 4 misses (one per shape)", outcomes)
			}
			if outcomes[plancache.Hit]+outcomes[plancache.Rebind] == 0 {
				t.Errorf("outcomes %v: corpus never served a cached plan", outcomes)
			}
		})
	}
}

func TestPlanCacheInvalidationOnStatsRebuild(t *testing.T) {
	ctx, _, env := diffFixture(t, 4000, 1, 1)
	_ = ctx
	cache := plancache.New(64, nil)
	q := func() *optimizer.Query {
		p, err := sqlparse.Parse("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("cold: %v %v", out, err)
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Hit {
		t.Fatalf("warm: %v %v", out, err)
	}
	// A statistics rebuild (new synopses) invalidates every cached plan
	// even though the estimator name and layout are unchanged.
	cache.Invalidate()
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("after stats rebuild: %v %v, want miss", out, err)
	}
}

// TestPlanCacheInvalidationOnReencode: cached plans embed a per-scan
// materialization mode chosen against a specific segment image, so both
// attaching encodings and rebuilding them must shift the layout key — a
// plan optimized against a stale (or absent) segment layout is never
// served.
func TestPlanCacheInvalidationOnReencode(t *testing.T) {
	ctx, _, env := diffFixture(t, 4000, 1, 1)
	cache := plancache.New(64, nil)
	q := func() *optimizer.Query {
		p, err := sqlparse.Parse("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("row-path cold: %v %v", out, err)
	}
	// Attaching encodings changes the physical layout: the row-path entry
	// must not be served for the now-encoded database.
	encs, err := colstore.BuildAll(ctx.DB)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Encodings = encs
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("encoded layout reused row-path plan: %v %v", out, err)
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Hit {
		t.Fatalf("encoded warm: %v %v", out, err)
	}
	// Re-encoding bumps the set's generation; every cached key shifts.
	if err := encs.Rebuild(ctx.DB); err != nil {
		t.Fatal(err)
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Miss {
		t.Fatalf("after re-encode: %v %v, want miss", out, err)
	}
	if _, out, err := cache.Plan(env, q()); err != nil || out != plancache.Hit {
		t.Fatalf("re-encoded warm: %v %v", out, err)
	}
}

func TestPlanCacheInvalidationOnPartitionChange(t *testing.T) {
	_, _, envFlat := diffFixture(t, 4000, 1, 1)
	_, _, envPart := diffFixture(t, 4000, 4, 1)
	cache := plancache.New(64, nil)
	q := func() *optimizer.Query {
		p, err := sqlparse.Parse("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, out, err := cache.Plan(envFlat, q()); err != nil || out != plancache.Miss {
		t.Fatalf("flat: %v %v", out, err)
	}
	// Re-partitioning changes the layout key: the flat entry must not be
	// served against the partitioned database.
	if _, out, err := cache.Plan(envPart, q()); err != nil || out != plancache.Miss {
		t.Fatalf("partitioned layout reused flat-layout plan: %v %v", out, err)
	}
	if _, out, err := cache.Plan(envPart, q()); err != nil || out != plancache.Hit {
		t.Fatalf("partitioned warm: %v %v", out, err)
	}
}
