// Package session runs one parsed query through the serving lifecycle
// every entry point shares: admission, the live registry, parallelism
// clamping, plan-cache lookup or cold optimization, the memory budget,
// instrumentation, guarded execution, and the post-execution sinks
// (latency histogram, lifecycle events, slow-query capture, query
// metrics). Each sink is optional; a Pipeline with none set reduces to
// optimize followed by engine.Run.
package session

import (
	"context"
	"fmt"
	"strings"
	"time"

	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
)

// Stage names the pipeline step a query failed in.
type Stage int

// The stages that can fail, in pipeline order.
const (
	Admit Stage = iota + 1
	Optimize
	Memory
	Execute
)

// Error is a pipeline failure tagged with the stage that produced it.
// It unwraps to the underlying error, so errors.Is still sees
// plancache.ErrShed, context.DeadlineExceeded and the like.
type Error struct {
	Stage Stage
	Err   error
}

func (e *Error) Error() string { return e.Err.Error() }

// Unwrap returns the underlying error.
func (e *Error) Unwrap() error { return e.Err }

// Pipeline is the query lifecycle over one execution context. Every
// field but Ctx is optional, and a nil sink is skipped. The plan is
// instrumented only when at least one of Metrics, Ledger, Live, Events,
// Slow or Trace is set; Cache and Admission alone leave it bare.
type Pipeline struct {
	Ctx *engine.Context
	// DOP is the requested parallelism; Admission may clamp it.
	DOP int

	// Cache memoizes plans by query template; nil optimizes every query
	// cold.
	Cache *plancache.Cache
	// Admission gates execution slots and the per-query memory budget.
	Admission *plancache.Admission
	// Timeout bounds the query once admitted; 0 disables it.
	Timeout time.Duration

	// Metrics receives optimizer counters, the latency histogram, and
	// per-query totals and Q-error.
	Metrics *obs.Registry
	// Ledger receives cardinality feedback when the plan root closes.
	Ledger *ledger.Ledger
	// Live registers the query for /debug/queries-style progress.
	Live *obs.ActiveQueries
	// Events receives the received/optimized/done/failed records.
	Events *obs.EventLog
	// Slow captures an EXPLAIN ANALYZE of queries at or over SlowAfter.
	Slow      *obs.SlowLog
	SlowAfter time.Duration
	// Trace receives optimizer and per-operator spans.
	Trace *obs.Trace
}

// Execution is one query's trip through the pipeline.
type Execution struct {
	Plan *optimizer.Plan
	// Cache is the plan-cache outcome; Miss when there is no cache.
	Cache plancache.Outcome
	// Inst is the instrumented tree that ran; nil when no instrumented
	// sink is set.
	Inst     *engine.Instrumented
	Result   *engine.Result
	Counters cost.Counters
}

func (p *Pipeline) observed() bool {
	return p.Metrics != nil || p.Ledger != nil || p.Live != nil ||
		p.Events != nil || p.Slow != nil || p.Trace != nil
}

// Run admits, plans, executes and records one query. sqlText labels the
// query in the live registry, event log and slow log. Failures are
// *Error values naming the stage; after an Execute failure the returned
// Execution still carries the plan.
func (p *Pipeline) Run(ctx context.Context, sqlText string, q *optimizer.Query, est core.Estimator) (*Execution, error) {
	// Admission first: overload is decided before any per-query work.
	if p.Admission != nil {
		release, err := p.Admission.Admit(ctx)
		if err != nil {
			return nil, &Error{Stage: Admit, Err: err}
		}
		defer release()
	}
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}

	start := time.Now()
	observed := p.observed()
	var live *obs.QueryLive
	if observed {
		// A nil registry still hands out an unregistered handle.
		live = p.Live.Begin(sqlText)
		defer p.Live.Done(live)
		p.Events.Emit(obs.Event{QueryID: live.ID, Event: "received", SQL: sqlText})
	}
	fail := func(stage Stage, err error) error {
		if live != nil {
			live.SetPhase(obs.PhaseFailed)
			p.Events.Emit(obs.Event{QueryID: live.ID, Event: "failed", Detail: err.Error()})
		}
		return &Error{Stage: stage, Err: err}
	}

	live.SetPhase(obs.PhaseOptimize)
	plan, outcome, err := p.Plan(q, est)
	if err != nil {
		return nil, fail(Optimize, err)
	}
	if p.Admission != nil {
		if err := p.Admission.CheckMemory(plan.EstRows); err != nil {
			return nil, fail(Memory, err)
		}
	}

	x := &Execution{Plan: plan, Cache: outcome}
	root := plan.Root
	if observed {
		x.Inst = engine.InstrumentOpts(plan.Root, engine.InstrumentOptions{
			Trace:      p.Trace,
			EstimateOf: plan.EstimateOf,
			Ledger:     p.Ledger,
			QueryID:    live.ID,
			Live:       live,
		})
		root = x.Inst
		live.T = plan.Confidence()
		live.DOP = p.dop()
		live.EstRows = plan.EstRows
		live.PartsPruned, live.PartsTotal = planPruning(plan)
		p.Events.Emit(obs.Event{QueryID: live.ID, Event: "optimized", T: live.T, DOP: live.DOP,
			EstRows: plan.EstRows, PartsPruned: live.PartsPruned, PartsTotal: live.PartsTotal,
			ElapsedUS: time.Since(start).Microseconds()})
		live.SetPhase(obs.PhaseExecute)
	}

	// The cancel guard sits outside the instrumented root: aborting
	// still closes the instrumented tree, which flushes ledger feedback
	// for the work that did complete.
	res, err := engine.Guard(ctx, root).Execute(p.Ctx, &x.Counters)
	if err != nil {
		return x, fail(Execute, err)
	}
	x.Result = res
	x.Counters.Output += int64(len(res.Rows))
	if observed {
		live.SetPhase(obs.PhaseDone)
		p.record(live, sqlText, x, time.Since(start))
	}
	return x, nil
}

// Plan resolves q to a plan without executing it: a plan-cache lookup
// or a cold optimization at the (clamped) pipeline parallelism.
func (p *Pipeline) Plan(q *optimizer.Query, est core.Estimator) (*optimizer.Plan, plancache.Outcome, error) {
	dop := p.dop()
	if p.Cache == nil {
		plan, err := p.optimize(q, est, dop)
		return plan, plancache.Miss, err
	}
	return p.Cache.Plan(plancache.Env{
		Ctx: p.Ctx,
		Est: est,
		DOP: dop,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) {
			return p.optimize(q, est, dop)
		},
	}, q)
}

func (p *Pipeline) dop() int {
	if p.Admission != nil {
		return p.Admission.ClampDOP(p.DOP)
	}
	return p.DOP
}

func (p *Pipeline) optimize(q *optimizer.Query, est core.Estimator, dop int) (*optimizer.Plan, error) {
	opt, err := optimizer.New(p.Ctx, est)
	if err != nil {
		return nil, err
	}
	opt.MaxDOP = dop
	opt.Metrics = p.Metrics
	opt.Trace = p.Trace
	return opt.Optimize(q)
}

// record feeds a finished query to the post-execution sinks.
func (p *Pipeline) record(live *obs.QueryLive, sqlText string, x *Execution, elapsed time.Duration) {
	p.Events.Emit(obs.Event{QueryID: live.ID, Event: "done",
		Rows: int64(len(x.Result.Rows)), ElapsedUS: elapsed.Microseconds()})
	if p.Slow != nil && elapsed >= p.SlowAfter {
		p.Slow.Record(obs.SlowQuery{
			QueryID: live.ID, SQL: sqlText, ElapsedUS: elapsed.Microseconds(),
			Analyze: engine.ExplainAnalyze(x.Inst, engine.AnalyzeOptions{
				EstimateOf: x.Plan.EstimateOf,
				Timings:    true,
				Totals:     &x.Counters,
			}),
		})
	}
	if p.Metrics != nil {
		recordQueryMetrics(p.Metrics, x.Plan, x.Inst, elapsed)
	}
}

// planPruning reports the widest pruned scan of the plan: the snapshot
// with the largest shard total.
func planPruning(plan *optimizer.Plan) (pruned, total int) {
	engine.Walk(plan.Root, func(n engine.Node) bool {
		if est, ok := plan.EstimateOf(n); ok && est.PartsTotal > total {
			pruned, total = est.PartsTotal-est.PartsScanned, est.PartsTotal
		}
		return true
	})
	return pruned, total
}

// recordQueryMetrics feeds one executed query into the metrics
// registry: latency, totals, the chosen join order keyed by the
// confidence threshold it was planned under, and the per-operator-type
// Q-error distribution (plan-vs-actual cardinality feedback).
func recordQueryMetrics(reg *obs.Registry, plan *optimizer.Plan, inst *engine.Instrumented, elapsed time.Duration) {
	reg.Histogram("robustqo_query_latency_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	reg.Counter("robustqo_queries_total").Inc()
	reg.Counter("robustqo_rows_returned_total").Add(inst.Stats.Rows)
	reg.Counter("robustqo_plans_total",
		obs.Label{Key: "order", Value: strings.Join(engine.LeafTables(inst), ",")},
		obs.Label{Key: "t", Value: fmt.Sprintf("%g", plan.Confidence())},
	).Inc()
	var walk func(in *engine.Instrumented)
	walk = func(in *engine.Instrumented) {
		if est, ok := plan.EstimateOf(in.Origin); ok {
			reg.Histogram("robustqo_qerror", obs.QErrorBuckets,
				obs.Label{Key: "op", Value: engine.OpName(in)},
			).Observe(obs.QError(est.Rows, float64(in.Stats.Rows)))
		}
		for _, k := range in.Kids {
			walk(k)
		}
	}
	walk(inst)
}
