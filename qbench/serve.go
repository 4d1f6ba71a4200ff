package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"robustqo/internal/colstore"
	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/histogram"
	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/sqlparse"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// The serve pipeline's settings, as the serve subcommand sets them.
const (
	serveThreshold  = 0.8
	serveCacheSize  = 1024
	serveTimeout    = 30 * time.Second
	serveSlowMillis = 100
)

// serveSystem is the state behind the serve subcommand's /query
// handler, built the way the server builds it. run walks a query
// through the same stages the handler does, one call at a time.
type serveSystem struct {
	ctx    *engine.Context
	est    core.Estimator
	reg    *obs.Registry
	cache  *plancache.Cache
	adm    *plancache.Admission
	led    *ledger.Ledger
	active *obs.ActiveQueries
	slow   *obs.SlowLog
	dop    int

	// refEst is the reference evaluator's histogram estimator.
	refEst core.Estimator
	encs   *colstore.Set // nil on the row store
}

// buildServe generates the TPC-H-like data and the server state over
// it: indexes, synopses, histograms and, when columnar, the encodings.
func buildServe(cfg tpch.Config, columnar bool, dop int) (*serveSystem, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	db, err := tpch.Generate(cfg)
	if err != nil {
		return nil, st, err
	}
	st.generate = time.Since(t0)

	t0 = time.Now()
	ctx, err := engine.NewContext(db)
	if err != nil {
		return nil, st, err
	}
	st.index = time.Since(t0)

	t0 = time.Now()
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(cfg.Seed^0xbeef))
	if err != nil {
		return nil, st, err
	}
	est, err := core.NewBayesEstimator(syn, core.ConfidenceThreshold(serveThreshold))
	if err != nil {
		return nil, st, err
	}
	st.sample = time.Since(t0)

	t0 = time.Now()
	hists, err := histogram.BuildAll(db)
	if err != nil {
		return nil, st, err
	}
	refEst, err := core.NewHistogramEstimator(hists, db.Catalog)
	if err != nil {
		return nil, st, err
	}
	st.histogram = time.Since(t0)

	s := &serveSystem{ctx: ctx, est: est, refEst: refEst, dop: dop}
	if columnar {
		t0 = time.Now()
		s.encs, err = colstore.BuildAll(db)
		if err != nil {
			return nil, st, err
		}
		ctx.Encodings = s.encs
		st.colstore = time.Since(t0)
	}
	s.reg = obs.NewRegistry()
	s.cache = plancache.New(serveCacheSize, s.reg)
	s.adm = plancache.NewAdmission(plancache.AdmissionConfig{}, admissionSlots(), s.reg)
	s.led = ledger.New(0)
	s.active = obs.NewActiveQueries()
	s.slow = obs.NewSlowLog(0, nil)
	ctx.Metrics = s.reg
	s.led.Metrics = s.reg
	return s, st, nil
}

// admissionSlots sizes the admission token pool as the server does:
// twice the CPUs, at least 4.
func admissionSlots() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

func (s *serveSystem) run(c *client, q *query) (outcome, error) {
	sqlText := q.key
	tr := c.tr
	sp := tr.begin(spParse, 0)
	pq, err := sqlparse.Parse(sqlText)
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}

	sp = tr.begin(spAdmit, 0)
	release, err := s.adm.Admit(context.Background())
	tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	defer release()
	rctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()

	sp = tr.begin(spLive, 0)
	live := s.active.Begin(sqlText)
	tr.end(sp)
	defer func() {
		sp := tr.begin(spLive, 0)
		s.active.Done(live)
		tr.end(sp)
	}()
	start := time.Now()

	dop := s.adm.ClampDOP(s.dop)
	live.SetPhase(obs.PhaseOptimize)
	env := plancache.Env{
		Ctx: s.ctx,
		Est: s.est,
		DOP: dop,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) {
			sp := tr.begin(spOptimize, 0)
			defer tr.end(sp)
			opt, err := optimizer.New(s.ctx, s.est)
			if err != nil {
				return nil, err
			}
			opt.MaxDOP = dop
			opt.Metrics = s.reg
			return opt.Optimize(q)
		},
	}
	sp = tr.begin(spPlan, 0)
	plan, outcomeKind, err := s.cache.Plan(env, pq)
	tr.setAttr(sp, uint8(outcomeKind)+1)
	tr.end(sp)
	if err != nil {
		live.SetPhase(obs.PhaseFailed)
		return outcome{}, err
	}
	sp = tr.begin(spCheckMem, 0)
	err = s.adm.CheckMemory(plan.EstRows)
	tr.end(sp)
	if err != nil {
		live.SetPhase(obs.PhaseFailed)
		return outcome{}, err
	}

	sp = tr.begin(spInstrument, 0)
	inst := engine.InstrumentOpts(plan.Root, engine.InstrumentOptions{
		EstimateOf: plan.EstimateOf,
		Ledger:     s.led,
		QueryID:    live.ID,
		Live:       live,
	})
	live.T = plan.Confidence()
	live.DOP = dop
	live.EstRows = plan.EstRows
	tr.end(sp)

	live.SetPhase(obs.PhaseExecute)
	var counters cost.Counters
	var before runtime.MemStats
	if c.measureAllocs {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin(spExecute, 0)
	res, err := engine.Guard(rctx, inst).Execute(s.ctx, &counters)
	tr.end(sp)
	if c.measureAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.allocs += after.Mallocs - before.Mallocs
		c.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		live.SetPhase(obs.PhaseFailed)
		return outcome{}, err
	}
	counters.Output += int64(len(res.Rows))
	live.SetPhase(obs.PhaseDone)
	elapsed := time.Since(start)
	s.reg.Histogram("robustqo_query_latency_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	if elapsed >= serveSlowMillis*time.Millisecond {
		sp = tr.begin(spAnalyze, 0)
		s.slow.Record(obs.SlowQuery{
			QueryID: live.ID, SQL: sqlText, ElapsedUS: elapsed.Microseconds(),
			Analyze: engine.ExplainAnalyze(inst, engine.AnalyzeOptions{
				EstimateOf: plan.EstimateOf,
				Timings:    true,
				Totals:     &counters,
			}),
		})
		tr.end(sp)
	}
	if c.ops != nil {
		addOpSelfTimes(inst, c.ops)
	}

	sim := s.ctx.Model.Time(counters)
	c.buf.Reset()
	fmt.Fprintf(&c.buf, "estimator: %s\nestimated cost: %.4f s, estimated rows: %.1f\nplan cache: %s\n",
		plan.Estimator, plan.EstCost, plan.EstRows, outcomeKind)
	sp = tr.begin(spRender, 0)
	explained := plan.Explain()
	tr.end(sp)
	fmt.Fprintf(&c.buf, "plan:\n%s", explained)
	fmt.Fprintf(&c.buf, "simulated execution: %.4f s\n(%d rows)\n", sim, len(res.Rows))
	return outcome{rows: res.Rows, counters: counters, sim: sim}, nil
}

// addOpSelfTimes charges each instrumented operator's wall time, minus
// its children's, to its operator name. An Exchange's children run on
// worker goroutines, so their time can exceed the Exchange's own; its
// self time is then counted as zero.
func addOpSelfTimes(n *engine.Instrumented, into map[string]time.Duration) time.Duration {
	total := n.Stats.OpenTime + n.Stats.NextTime + n.Stats.CloseTime
	var kids time.Duration
	for _, k := range n.Kids {
		kids += addOpSelfTimes(k, into)
	}
	if self := total - kids; self > 0 {
		into[engine.OpName(n)] += self
	}
	return total
}

// reference plans q cold under the histogram estimator, serially and
// over the row store, and executes it.
func (s *serveSystem) reference(q *query) ([]value.Row, error) {
	pq, err := sqlparse.Parse(q.key)
	if err != nil {
		return nil, err
	}
	ctx := &engine.Context{DB: s.ctx.DB, Indexes: s.ctx.Indexes, Model: s.ctx.Model}
	opt, err := optimizer.New(ctx, s.refEst)
	if err != nil {
		return nil, err
	}
	plan, err := opt.Optimize(pq)
	if err != nil {
		return nil, err
	}
	res, _, _, err := engine.Run(ctx, plan.Root)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// serveCounters are the registry counters the per-layer metrics read.
var serveCounters = []string{
	"robustqo_plancache_hits_total",
	"robustqo_plancache_rebinds_total",
	"robustqo_plancache_misses_total",
	"robustqo_plancache_rejects_total",
	"robustqo_plancache_evictions_total",
	"robustqo_estimate_cache_hits_total",
	"robustqo_estimate_cache_misses_total",
	"robustqo_quantile_cache_hits_total",
	"robustqo_quantile_cache_misses_total",
	"robustqo_hashjoin_rehashes_total",
	"robustqo_columnar_segments_scanned_total",
	"robustqo_columnar_segments_skipped_total",
	"robustqo_ledger_appends_total",
}

func (s *serveSystem) counterSnapshot() map[string]int64 {
	m := map[string]int64{}
	for _, n := range serveCounters {
		m[n] = s.reg.Counter(n).Value()
	}
	return m
}

func (s *serveSystem) layerMetrics(res *loopResult, tr *traceSet, before, after map[string]int64, m map[string]metric) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	queries := float64(res.attempted)

	parse, _ := percentile(durationsMicros(tr.durations(spParse, nil)), 0.5)
	m["sqlparse.parse_us_p50"] = metric{parse, "us"}

	outcomes := map[plancache.Outcome]float64{}
	plans := tr.durations(spPlan, nil)
	for _, t := range tr.clients {
		for _, sp := range t.spans {
			if sp.name == spPlan && sp.attr > 0 {
				outcomes[plancache.Outcome(sp.attr-1)]++
			}
		}
	}
	lookups, _ := percentile(durationsMicros(tr.durations(spPlan, func(a uint8) bool {
		o := plancache.Outcome(a - 1)
		return a > 0 && o.Cached()
	})), 0.5)
	n := float64(len(plans))
	m["plancache.lookup_us_p50"] = metric{lookups, "us"}
	m["plancache.hit_share"] = metric{outcomes[plancache.Hit] / n, "fraction"}
	m["plancache.rebind_share"] = metric{outcomes[plancache.Rebind] / n, "fraction"}
	m["plancache.miss_share"] = metric{outcomes[plancache.Miss] / n, "fraction"}
	m["plancache.reject_share"] = metric{outcomes[plancache.Reject] / n, "fraction"}
	m["plancache.evictions"] = metric{d("robustqo_plancache_evictions_total"), "count"}
	admit, _ := percentile(durationsMicros(tr.durations(spAdmit, nil)), 0.95)
	m["plancache.admit_wait_us_p95"] = metric{admit, "us"}

	opt := durationsMicros(tr.durations(spOptimize, nil))
	p50, _ := percentile(opt, 0.5)
	p95, _ := percentile(opt, 0.95)
	m["optimizer.optimize_us_p50"] = metric{p50, "us"}
	m["optimizer.optimize_us_p95"] = metric{p95, "us"}
	m["optimizer.calls_per_query"] = metric{float64(len(opt)) / queries, "count"}
	m["optimizer.estimate_cache_hit_ratio"] = metric{ratio(d("robustqo_estimate_cache_hits_total"), d("robustqo_estimate_cache_misses_total")), "fraction"}
	m["core.quantile_cache_hit_ratio"] = metric{ratio(d("robustqo_quantile_cache_hits_total"), d("robustqo_quantile_cache_misses_total")), "fraction"}

	exec := durationsMicros(tr.durations(spExecute, nil))
	e50, _ := percentile(exec, 0.5)
	m["engine.execute_ms_p50"] = metric{e50 / 1000, "ms"}
	m["engine.exchange_busy_ratio"] = metric{s.reg.Histogram("robustqo_exchange_worker_busy_ratio", obs.RatioBuckets).Quantile(0.5), "fraction"}
	m["engine.hashjoin_rehashes"] = metric{d("robustqo_hashjoin_rehashes_total"), "count"}

	m["colstore.segments_skipped_share"] = metric{ratio(d("robustqo_columnar_segments_skipped_total"), d("robustqo_columnar_segments_scanned_total")), "fraction"}
	comp := 0.0
	if s.encs != nil {
		comp = float64(s.encs.RawBytes()) / float64(s.encs.EncodedBytes())
	}
	m["colstore.compression_ratio"] = metric{comp, "ratio"}

	inst, _ := percentile(durationsMicros(tr.durations(spInstrument, nil)), 0.5)
	m["obs.instrument_us_p50"] = metric{inst, "us"}
	m["obs.ledger_appends_per_query"] = metric{d("robustqo_ledger_appends_total") / queries, "count"}
}
