// Command benchserve gates what the serving stack must deliver under
// sustained concurrent load. Phase one measures the optimize phase in
// isolation: a cache-hit lookup must be at least 5x faster than a cold
// optimization across the four corpus shapes (enforced on every
// machine). Phase two runs a closed-loop HTTP load over the 40-query
// corpus with a configurable template-repeat ratio and gates the cache
// hit rate at 80%, recording client-side p50/p99 latency and QPS; the
// wall-clock latency/QPS gates only bite on machines with at least 4
// CPUs, like benchshard's DOP gate. Phase three overloads a tiny
// admission gate and requires bounded behavior: every response is
// either 200 or 429, at least one request is shed, and no goroutine
// outlives the burst. Results land in a JSON report (BENCH_serve.json
// in CI) with num_cpu and waived_gates.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/plancache"
	"robustqo/internal/sample"
	"robustqo/internal/session"
	"robustqo/internal/sqlparse"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

type report struct {
	NumCPU      int     `json:"num_cpu"`
	Lines       int     `json:"lines"`
	Workers     int     `json:"workers"`
	Requests    int     `json:"requests"`
	RepeatRatio float64 `json:"repeat_ratio"`

	// Optimize-phase speedup on cache hits (enforced everywhere).
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
	OverloadRequests int      `json:"overload_requests"`
	OverloadOK       int      `json:"overload_ok"`
	OverloadShed     int      `json:"overload_shed"`
	OverloadBounded  bool     `json:"overload_bounded"`
	GoroutinesBefore int      `json:"goroutines_before"`
	GoroutinesAfter  int      `json:"goroutines_after"`
	NoGoroutineLeak  bool     `json:"no_goroutine_leak"`
	LatencyQPSWaived bool     `json:"latency_qps_waived"`
	WaivedGates      []string `json:"waived_gates"`
}

func main() {
	out := flag.String("out", "BENCH_serve.json", "report file path")
	lines := flag.Int("lines", 30000, "lineitem rows to generate")
	workers := flag.Int("workers", 2*runtime.NumCPU(), "closed-loop client goroutines")
	requests := flag.Int("requests", 60, "requests per worker")
	repeat := flag.Float64("repeat", 0.9, "probability a request repeats an already-seen template binding")
	minSpeedup := flag.Float64("min-speedup", 5, "fail when cache hits are not this much faster than cold optimization")
	minHitRate := flag.Float64("min-hit-rate", 0.8, "fail when the cached-plan rate is below this")
	maxP99 := flag.Float64("max-p99-ms", 500, "fail when client-side p99 exceeds this (needs >=4 CPUs)")
	minQPS := flag.Float64("min-qps", 50, "fail when throughput is below this (needs >=4 CPUs)")
	flag.Parse()
	if err := run(*out, *lines, *workers, *requests, *repeat, *minSpeedup, *minHitRate, *maxP99, *minQPS); err != nil {
		fmt.Fprintln(os.Stderr, "benchserve:", err)
		os.Exit(1)
	}
}

func run(out string, lines, workers, requests int, repeat, minSpeedup, minHitRate, maxP99, minQPS float64) error {
	db, err := tpch.Generate(tpch.Config{Lines: lines, Seed: 2005})
	if err != nil {
		return err
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		return err
	}
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(2005^0x5a4d))
	if err != nil {
		return err
	}
	est, err := core.NewBayesEstimator(syn, core.ConfidenceThreshold(0.8))
	if err != nil {
		return err
	}
	opt, err := optimizer.New(ctx, est)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	ctx.Metrics = reg
	rep := report{
		NumCPU: runtime.NumCPU(), Lines: lines, Workers: workers,
		Requests: workers * requests, RepeatRatio: repeat,
		MinOptimizeSpeedup: minSpeedup, MinHitRate: minHitRate,
		MaxP99Ms: maxP99, MinQPS: minQPS, WaivedGates: []string{},
	}

	cache := plancache.New(1024, reg)
	env := plancache.Env{
		Ctx: ctx, Est: est, DOP: 1,
		Optimize: func(q *optimizer.Query) (*optimizer.Plan, error) { return opt.Optimize(q) },
	}

	if err := optimizeSpeedup(cache, env, opt, &rep); err != nil {
		return err
	}
	if err := loadPhase(ctx, cache, est, reg, workers, requests, repeat, &rep); err != nil {
		return err
	}
	if err := overloadPhase(ctx, cache, est, &rep); err != nil {
		return err
	}

	rep.LatencyQPSWaived = rep.NumCPU < 4
	if rep.LatencyQPSWaived {
		rep.WaivedGates = append(rep.WaivedGates, "p99_latency", "min_qps")
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("optimize: %.0f ns cold vs %.0f ns hit (%.1fx)\n",
		rep.ColdOptimizeNs, rep.HitPathNs, rep.OptimizeSpeedup)
	fmt.Printf("load: %d requests, hit rate %.1f%%, p50 %.2f ms, p99 %.2f ms, %.0f qps\n",
		rep.Requests, rep.HitRate*100, rep.P50Ms, rep.P99Ms, rep.QPS)
	fmt.Printf("overload: %d ok, %d shed of %d; bounded=%v leak-free=%v; report: %s\n",
		rep.OverloadOK, rep.OverloadShed, rep.OverloadRequests, rep.OverloadBounded, rep.NoGoroutineLeak, out)

	if rep.OptimizeSpeedup < minSpeedup {
		return fmt.Errorf("cache-hit path is only %.1fx faster than cold optimization, floor is %.1fx",
			rep.OptimizeSpeedup, minSpeedup)
	}
	if rep.HitRate < minHitRate {
		return fmt.Errorf("cached-plan rate %.1f%% below the %.0f%% floor", rep.HitRate*100, minHitRate*100)
	}
	if !rep.OverloadBounded {
		return fmt.Errorf("overload produced unexpected responses: %d ok + %d shed of %d",
			rep.OverloadOK, rep.OverloadShed, rep.OverloadRequests)
	}
	if rep.OverloadShed == 0 {
		return fmt.Errorf("overload burst was never shed despite 2 slots + 2 queue seats")
	}
	if !rep.NoGoroutineLeak {
		return fmt.Errorf("goroutines grew from %d to %d across the overload burst",
			rep.GoroutinesBefore, rep.GoroutinesAfter)
	}
	if !rep.LatencyQPSWaived {
		if rep.P99Ms > maxP99 {
			return fmt.Errorf("client-side p99 %.1f ms exceeds the %.0f ms ceiling", rep.P99Ms, maxP99)
		}
		if rep.QPS < minQPS {
			return fmt.Errorf("throughput %.0f qps below the %.0f floor", rep.QPS, minQPS)
		}
	}
	return nil
}

// optimizeSpeedup times a cold optimization against a warm cache lookup
// for each of the four corpus shapes and gates the aggregate ratio.
func optimizeSpeedup(cache *plancache.Cache, env plancache.Env, opt *optimizer.Optimizer, rep *report) error {
	shapes := tpch.FeedbackCorpus()[:4]
	var coldTotal, hitTotal float64
	for _, sqlText := range shapes {
		q, err := sqlparse.Parse(sqlText)
		if err != nil {
			return err
		}
		var optErr error
		cold := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := opt.Optimize(q); err != nil {
					optErr = err
					b.FailNow()
				}
			}
		})
		if optErr != nil {
			return optErr
		}
		// Warm the entry, then time the pure hit path: normalize, key,
		// lookup, parameter comparison — no quantiling, no enumeration.
		if _, _, err := cache.Plan(env, q); err != nil {
			return err
		}
		hit := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := cache.Plan(env, q); err != nil {
					optErr = err
					b.FailNow()
				}
			}
		})
		if optErr != nil {
			return optErr
		}
		coldTotal += float64(cold.NsPerOp())
		hitTotal += float64(hit.NsPerOp())
	}
	rep.ColdOptimizeNs, rep.HitPathNs = coldTotal, hitTotal
	if hitTotal > 0 {
		rep.OptimizeSpeedup = coldTotal / hitTotal
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
// probability repeat each request re-issues a binding the worker has
// already sent (a template the cache has seen), otherwise it advances
// to the next binding in the sweep.
func loadPhase(ctx *engine.Context, cache *plancache.Cache, est core.Estimator, reg *obs.Registry, workers, requests int, repeat float64, rep *report) error {
	adm := plancache.NewAdmission(plancache.AdmissionConfig{
		Slots: 2 * runtime.NumCPU(), MaxQueue: workers * requests,
		QueueTimeout: time.Minute,
	}, 2*runtime.NumCPU(), reg)
	ts := httptest.NewServer(serveHandler(ctx, cache, est, adm))
	defer ts.Close()

	// Counter baselines: the optimize-speedup benchmark already drove
	// millions of lookups through the cache; the hit rate must reflect
	// only the load phase.
	base := map[string]int64{
		"robustqo_plancache_hits_total":    reg.Counter("robustqo_plancache_hits_total").Value(),
		"robustqo_plancache_rebinds_total": reg.Counter("robustqo_plancache_rebinds_total").Value(),
		"robustqo_plancache_misses_total":  reg.Counter("robustqo_plancache_misses_total").Value(),
		"robustqo_plancache_rejects_total": reg.Counter("robustqo_plancache_rejects_total").Value(),
	}

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
			for i := 0; i < requests; i++ {
				var sqlText string
				if rng.Float64() < repeat {
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

	rep.CacheHits = reg.Counter("robustqo_plancache_hits_total").Value() - base["robustqo_plancache_hits_total"]
	rep.CacheRebinds = reg.Counter("robustqo_plancache_rebinds_total").Value() - base["robustqo_plancache_rebinds_total"]
	rep.CacheMisses = reg.Counter("robustqo_plancache_misses_total").Value() - base["robustqo_plancache_misses_total"]
	rep.CacheRejects = reg.Counter("robustqo_plancache_rejects_total").Value() - base["robustqo_plancache_rejects_total"]
	total := rep.CacheHits + rep.CacheRebinds + rep.CacheMisses + rep.CacheRejects
	if total > 0 {
		rep.HitRate = float64(rep.CacheHits+rep.CacheRebinds) / float64(total)
	}
	return nil
}

// overloadPhase slams a 2-slot, 2-seat admission gate with a burst four
// times its capacity: responses must be only 200 or 429, some must be
// shed, and every goroutine must unwind.
func overloadPhase(ctx *engine.Context, cache *plancache.Cache, est core.Estimator, rep *report) error {
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
	return nil
}
