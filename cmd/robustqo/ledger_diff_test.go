package main

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/plancache"
	"robustqo/internal/session"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// TestLedgerInstrumentationDifferential pins the query pipeline's
// zero-cost contract on results. Three pipelines run the 40-query
// corpus at DOP 1, 2, and 4 over a 2-shard partitioned layout: one with
// every sink nil, one with the ledger, live registry, event log, a 0 ms
// slow log and a metrics registry, and one with only a plan cache that
// sees the corpus twice, so its second pass is partly served from the
// cache.
// All three must produce byte-identical rows in identical order AND
// byte-identical cost.Counters. Run with -race this doubles as the proof
// that ledger appends and live-progress updates race with nothing in
// the parallel drain.
func TestLedgerInstrumentationDifferential(t *testing.T) {
	ctx, est, err := buildSystem(tpch.Config{Lines: 6000, Partitions: 2, Seed: 2005}, "robust", 0.8, 500)
	if err != nil {
		t.Fatal(err)
	}
	led := ledger.New(0)
	corpus := tpch.FeedbackCorpus()
	for _, dop := range []int{1, 2, 4} {
		var events bytes.Buffer
		bare := &session.Pipeline{Ctx: ctx, DOP: dop}
		full := &session.Pipeline{
			Ctx: ctx, DOP: dop,
			Metrics: obs.NewRegistry(),
			Ledger:  led,
			Live:    obs.NewActiveQueries(),
			Events:  obs.NewEventLog(&events),
			Slow:    obs.NewSlowLog(len(corpus), nil),
		}
		cached := &session.Pipeline{Ctx: ctx, DOP: dop, Cache: plancache.New(256, nil)}

		want := make([]string, len(corpus))
		for qi, sqlText := range corpus {
			label := fmt.Sprintf("dop=%d query %d %q", dop, qi, sqlText)
			x, got := runPipeline(t, bare, sqlText, est)
			if x.Inst != nil {
				t.Fatalf("%s: pipeline with no sinks instrumented the plan", label)
			}
			want[qi] = got

			before := led.Ordinal()
			x, got = runPipeline(t, full, sqlText, est)
			if x.Inst == nil || led.Ordinal() == before {
				t.Fatalf("%s: full-sink leg appended no ledger observations; the leg is not on", label)
			}
			if got != want[qi] {
				t.Fatalf("%s: full sinks diverge from no sinks:\nfull %s\nbare %s", label, got, want[qi])
			}
		}
		if n := len(full.Slow.Recent()); n != len(corpus) {
			t.Errorf("dop=%d: 0 ms slow log captured %d of %d queries", dop, n, len(corpus))
		}
		if events.Len() == 0 {
			t.Errorf("dop=%d: event log is empty", dop)
		}

		// The second pass walks the corpus backwards: each shape's most
		// recently retained bindings come first, so they hit.
		hits := 0
		for pass := 0; pass < 2; pass++ {
			for i := range corpus {
				qi := i
				if pass == 1 {
					qi = len(corpus) - 1 - i
				}
				x, got := runPipeline(t, cached, corpus[qi], est)
				if got != want[qi] {
					t.Fatalf("dop=%d pass %d query %d %q (%v): cached plan diverges:\ncached %s\ncold   %s",
						dop, pass, qi, corpus[qi], x.Cache, got, want[qi])
				}
				if pass == 1 && x.Cache == plancache.Hit {
					hits++
				}
			}
		}
		if hits == 0 {
			t.Errorf("dop=%d: second pass through the plan cache never hit", dop)
		}
	}
	if led.Len() == 0 {
		t.Fatal("corpus produced no ledger fingerprints")
	}
}

// runPipeline parses and runs one query through p and renders its rows
// and cost counters as one string.
func runPipeline(t *testing.T, p *session.Pipeline, sqlText string, est core.Estimator) (*session.Execution, string) {
	t.Helper()
	q, err := sqlparse.Parse(sqlText)
	if err != nil {
		t.Fatalf("%q: parse: %v", sqlText, err)
	}
	x, err := p.Run(context.Background(), sqlText, q, est)
	if err != nil {
		t.Fatalf("%q: %v", sqlText, err)
	}
	return x, fmt.Sprintf("%v|%+v", x.Result.Rows, x.Counters)
}
