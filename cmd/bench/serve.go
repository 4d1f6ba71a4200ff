package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/session"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

// The serve bench checks what the serving stack must deliver under
// sustained concurrent load. Phase one times the optimize phase alone:
// a cache-hit lookup must be at least serveMinSpeedup times faster than
// a cold optimization across the four corpus shapes. Phase two runs a
// closed-loop HTTP load over the 40-query corpus and gates the cache
// hit rate, recording client-side p50/p99 latency and QPS (wall-clock
// gates). Phase three overloads a tiny admission gate and requires
// bounded behavior: every response is either 200 or 429, at least one
// request is shed, and no goroutine outlives the burst.
const (
	serveLines      = 30000
	serveRequests   = 60  // per worker
	serveRepeat     = 0.9 // probability a request repeats a binding the worker already sent
	serveMinSpeedup = 5.0
	serveMinHitRate = 0.8
	serveMaxP99Ms   = 500
	serveMinQPS     = 50
)

type serveReport struct {
	header
	Lines       int     `json:"lines"`
	Workers     int     `json:"workers"`
	Requests    int     `json:"requests"`
	RepeatRatio float64 `json:"repeat_ratio"`

	// Optimize-phase speedup on cache hits.
	ColdOptimizeNs     float64 `json:"cold_optimize_ns"`
	HitPathNs          float64 `json:"hit_path_ns"`
	OptimizeSpeedup    float64 `json:"optimize_speedup"`
	MinOptimizeSpeedup float64 `json:"min_optimize_speedup"`

	// Closed-loop serving phase.
	CacheHits    int64   `json:"cache_hits"`
	CacheRebinds int64   `json:"cache_rebinds"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheRejects int64   `json:"cache_rejects"`
	HitRate      float64 `json:"hit_rate"`
	MinHitRate   float64 `json:"min_hit_rate"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxP99Ms     float64 `json:"max_p99_ms"`
	QPS          float64 `json:"qps"`
	MinQPS       float64 `json:"min_qps"`

	// Overload leg: bounded queue + shedding + clean unwind.
	OverloadRequests int  `json:"overload_requests"`
	OverloadOK       int  `json:"overload_ok"`
	OverloadShed     int  `json:"overload_shed"`
	OverloadBounded  bool `json:"overload_bounded"`
	GoroutinesBefore int  `json:"goroutines_before"`
	GoroutinesAfter  int  `json:"goroutines_after"`
	NoGoroutineLeak  bool `json:"no_goroutine_leak"`
}

func runServe() (report, []gate, error) {
	_, ctx, est, err := setup(tpch.Config{Lines: serveLines, Seed: 2005}, seedSynopsis)
	if err != nil {
		return nil, nil, err
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		return nil, nil, err
	}
	reg := obs.NewRegistry()
	ctx.Metrics = reg
	workers := 2 * runtime.NumCPU()
	rep := &serveReport{
		Lines: serveLines, Workers: workers,
		Requests: workers * serveRequests, RepeatRatio: serveRepeat,
		MinOptimizeSpeedup: serveMinSpeedup, MinHitRate: serveMinHitRate,
		MaxP99Ms: serveMaxP99Ms, MinQPS: serveMinQPS,
	}

	cache := plancache.New(1024, reg)
	env := plancache.Env{
		Ctx: ctx, Est: est, DOP: 1,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) { return opt.Optimize(q) },
	}
	if err := optimizeSpeedup(cache, env, opt, rep); err != nil {
		return nil, nil, err
	}
	if err := loadPhase(ctx, cache, est, reg, workers, rep); err != nil {
		return nil, nil, err
	}
	overloadPhase(ctx, cache, est, rep)
	fmt.Printf("serve: optimize: %.0f ns cold vs %.0f ns hit (%.1fx)\n",
		rep.ColdOptimizeNs, rep.HitPathNs, rep.OptimizeSpeedup)
	fmt.Printf("serve: load: %d requests, hit rate %.1f%%, p50 %.2f ms, p99 %.2f ms, %.0f qps\n",
		rep.Requests, rep.HitRate*100, rep.P50Ms, rep.P99Ms, rep.QPS)
	fmt.Printf("serve: overload: %d ok, %d shed of %d; bounded=%v leak-free=%v\n",
		rep.OverloadOK, rep.OverloadShed, rep.OverloadRequests, rep.OverloadBounded, rep.NoGoroutineLeak)

	return rep, []gate{
		{
			name: "optimize_speedup", ok: rep.OptimizeSpeedup >= serveMinSpeedup,
			fail: fmt.Sprintf("cache-hit path is only %.1fx faster than cold optimization, floor is %.1fx",
				rep.OptimizeSpeedup, serveMinSpeedup),
		},
		{
			name: "hit_rate", ok: rep.HitRate >= serveMinHitRate,
			fail: fmt.Sprintf("cached-plan rate %.1f%% below the %.0f%% floor", rep.HitRate*100, serveMinHitRate*100),
		},
		{
			name: "overload_bounded", ok: rep.OverloadBounded,
			fail: fmt.Sprintf("overload produced unexpected responses: %d ok + %d shed of %d",
				rep.OverloadOK, rep.OverloadShed, rep.OverloadRequests),
		},
		{name: "overload_shed", ok: rep.OverloadShed > 0, fail: "overload burst was never shed despite 2 slots + 2 queue seats"},
		{
			name: "no_goroutine_leak", ok: rep.NoGoroutineLeak,
			fail: fmt.Sprintf("goroutines grew from %d to %d across the overload burst", rep.GoroutinesBefore, rep.GoroutinesAfter),
		},
		{
			name: "p99_latency", clock: true, ok: rep.P99Ms <= serveMaxP99Ms,
			fail: fmt.Sprintf("client-side p99 %.1f ms exceeds the %d ms ceiling", rep.P99Ms, serveMaxP99Ms),
		},
		{
			name: "min_qps", clock: true, ok: rep.QPS >= serveMinQPS,
			fail: fmt.Sprintf("throughput %.0f qps below the %d floor", rep.QPS, serveMinQPS),
		},
	}, nil
}

// optimizeSpeedup times a cold optimization against a warm cache lookup
// for each of the four corpus shapes and records the aggregate ratio.
func optimizeSpeedup(cache *plancache.Cache, env plancache.Env, opt *optimizer.Optimizer, rep *serveReport) error {
	for _, sqlText := range tpch.FeedbackCorpus()[:4] {
		q, err := sqlparse.Parse(sqlText)
		if err != nil {
			return err
		}
		// Warm the entry so the second op times the pure hit path:
		// normalize, key, lookup, parameter comparison — no quantiling,
		// no enumeration.
		if _, _, err := cache.Plan(env, q); err != nil {
			return err
		}
		t, err := timeBest(1,
			func() error { _, err := opt.Optimize(q); return err },
			func() error { _, _, err := cache.Plan(env, q); return err })
		if err != nil {
			return err
		}
		rep.ColdOptimizeNs += t[0]
		rep.HitPathNs += t[1]
	}
	if rep.HitPathNs > 0 {
		rep.OptimizeSpeedup = rep.ColdOptimizeNs / rep.HitPathNs
	}
	return nil
}

// serveHandler drives the shared query pipeline with the plan cache
// and an admission gate, and no instrumented sinks: a shed request is a
// 429, a bad query a 400, an execution failure a 500.
func serveHandler(ctx *engine.Context, cache *plancache.Cache, est core.Estimator, adm *plancache.Admission) http.HandlerFunc {
	pipe := &session.Pipeline{Ctx: ctx, DOP: 1, Cache: cache, Admission: adm}
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := sqlparse.Parse(r.FormValue("sql"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		x, err := pipe.Run(r.Context(), "", q, est)
		if err != nil {
			var perr *session.Error
			errors.As(err, &perr)
			switch perr.Stage {
			case session.Admit:
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusTooManyRequests)
			case session.Optimize:
				http.Error(w, err.Error(), http.StatusBadRequest)
			default:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		fmt.Fprintf(w, "%d rows\n", len(x.Result.Rows))
	}
}

// loadPhase drives a closed loop of workers over the corpus: with
// probability serveRepeat each request re-issues a binding the worker
// has already sent (a template the cache has seen), otherwise it
// advances to the next binding in the sweep.
func loadPhase(ctx *engine.Context, cache *plancache.Cache, est core.Estimator, reg *obs.Registry, workers int, rep *serveReport) error {
	adm := plancache.NewAdmission(plancache.AdmissionConfig{
		Slots: 2 * runtime.NumCPU(), MaxQueue: workers * serveRequests,
		QueueTimeout: time.Minute,
	}, 2*runtime.NumCPU(), reg)
	ts := httptest.NewServer(serveHandler(ctx, cache, est, adm))
	defer ts.Close()

	// Counter baselines: the optimize-speedup benchmark already drove
	// millions of lookups through the cache; the hit rate must reflect
	// only the load phase.
	outcomes := func() [4]int64 {
		return [4]int64{
			reg.Counter("robustqo_plancache_hits_total").Value(),
			reg.Counter("robustqo_plancache_rebinds_total").Value(),
			reg.Counter("robustqo_plancache_misses_total").Value(),
			reg.Counter("robustqo_plancache_rejects_total").Value(),
		}
	}
	base := outcomes()

	qs := tpch.FeedbackCorpus()
	latencies := make([][]time.Duration, workers)
	errs := make(chan error, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wi) + 7))
			cursor := wi % len(qs)
			seen := []string{qs[cursor]}
			for i := 0; i < serveRequests; i++ {
				var sqlText string
				if rng.Float64() < serveRepeat {
					sqlText = seen[rng.Intn(len(seen))]
				} else {
					cursor = (cursor + 1) % len(qs)
					sqlText = qs[cursor]
					seen = append(seen, sqlText)
				}
				t0 := time.Now()
				resp, err := http.Get(ts.URL + "/?sql=" + url.QueryEscape(sqlText))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: status %d", wi, resp.StatusCode)
					return
				}
				latencies[wi] = append(latencies[wi], time.Since(t0))
			}
		}(wi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	wall := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i]) / float64(time.Millisecond)
	}
	rep.P50Ms, rep.P99Ms = pct(0.50), pct(0.99)
	rep.QPS = float64(len(all)) / wall.Seconds()

	now := outcomes()
	rep.CacheHits, rep.CacheRebinds = now[0]-base[0], now[1]-base[1]
	rep.CacheMisses, rep.CacheRejects = now[2]-base[2], now[3]-base[3]
	if total := rep.CacheHits + rep.CacheRebinds + rep.CacheMisses + rep.CacheRejects; total > 0 {
		rep.HitRate = float64(rep.CacheHits+rep.CacheRebinds) / float64(total)
	}
	return nil
}

// overloadPhase slams a 2-slot, 2-seat admission gate with a burst four
// times its capacity: responses must be only 200 or 429, some must be
// shed, and every goroutine must unwind.
func overloadPhase(ctx *engine.Context, cache *plancache.Cache, est core.Estimator, rep *serveReport) {
	adm := plancache.NewAdmission(plancache.AdmissionConfig{
		Slots: 2, MaxQueue: 2, QueueTimeout: 20 * time.Millisecond,
	}, 2, nil)
	ts := httptest.NewServer(serveHandler(ctx, cache, est, adm))
	defer ts.Close()

	rep.GoroutinesBefore = runtime.NumGoroutine()
	const burst = 16
	rep.OverloadRequests = burst
	sqlText := url.QueryEscape(tpch.FeedbackCorpus()[2])
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/?sql=" + sqlText)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	rep.OverloadBounded = true
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			rep.OverloadOK++
		case http.StatusTooManyRequests:
			rep.OverloadShed++
		default:
			rep.OverloadBounded = false
		}
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > rep.GoroutinesBefore+4 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rep.GoroutinesAfter = runtime.NumGoroutine()
	rep.NoGoroutineLeak = rep.GoroutinesAfter <= rep.GoroutinesBefore+4
}
