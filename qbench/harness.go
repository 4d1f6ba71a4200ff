package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"robustqo/internal/cost"
	"robustqo/internal/value"
)

// query is one entry of a workload's pass.
type query struct {
	// key identifies the query: SQL text, or a label for queries built
	// through the root API. Equal keys have equal answers.
	key string
	// mode names the estimator the query runs under: "t50", "t80",
	// "t95" (robust at that confidence threshold) or "hist".
	mode string
	// point groups pass entries that the simulated-cost metrics average
	// into one data point, as the paper averaged a query's time over
	// sample sets; empty makes the entry its own point.
	point string
	// payload is the system's own form of the query.
	payload any
}

// outcome is what one executed query produced.
type outcome struct {
	rows     []value.Row
	counters cost.Counters
	sim      float64 // simulated seconds: the cost model over counters
}

// system is one entry point the benchmark drives.
type system interface {
	// run executes q the way the entry point does, recording spans on
	// c's tracer when it has one.
	run(c *client, q *query) (outcome, error)
	// reference evaluates q with a cold, serial, row-store plan under
	// the histogram estimator; it runs outside every timed region.
	reference(q *query) ([]value.Row, error)
	// counterSnapshot reads the system's metric counters, so a loop's
	// share of them is the difference of two snapshots.
	counterSnapshot() map[string]int64
	// layerMetrics adds the system-specific per-layer metrics of a
	// traced loop.
	layerMetrics(res *loopResult, tr *traceSet, before, after map[string]int64, m map[string]metric)
}

// bench is one built workload.
type bench struct {
	clients int
	dop     int
	pass    []*query
	sys     system

	refs         []*answer // reference answer per pass index
	countersBase map[string]int64
}

// client is one closed-loop caller. Only its own goroutine touches it.
type client struct {
	tr  *tracer      // nil when the loop is untraced
	buf bytes.Buffer // the rendered response
	// ops accumulates instrumented self time per operator name in a
	// traced loop.
	ops map[string]time.Duration
	// measureAllocs asks run to read allocation counters around the
	// engine call (serial replay only; the read stops the world).
	measureAllocs      bool
	allocs, allocBytes uint64
	rowsOut            int64
}

func (b *bench) distinct() int {
	seen := map[string]bool{}
	for _, q := range b.pass {
		seen[q.key] = true
	}
	return len(seen)
}

// prepare computes every reference answer, two queries at a time.
func (b *bench) prepare() error {
	byKey := map[string]*answer{}
	var keys []*query
	for _, q := range b.pass {
		if _, ok := byKey[q.key]; !ok {
			byKey[q.key] = nil
			keys = append(keys, q)
		}
	}
	answers := make([]*answer, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				rows, err := b.sys.reference(keys[i])
				if err != nil {
					errs[i] = fmt.Errorf("reference for %q: %w", keys[i].key, err)
					continue
				}
				answers[i] = newAnswer(rows)
			}
		}()
	}
	wg.Wait()
	for i, q := range keys {
		if errs[i] != nil {
			return errs[i]
		}
		byKey[q.key] = answers[i]
	}
	b.refs = make([]*answer, len(b.pass))
	for i, q := range b.pass {
		b.refs[i] = byKey[q.key]
	}
	return nil
}

func (b *bench) sequenceDigest() uint64 {
	h := fnv.New64a()
	for _, q := range b.pass {
		h.Write([]byte(q.key))
		h.Write([]byte{0})
		h.Write([]byte(q.mode))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

func (b *bench) answersDigest() uint64 {
	var d uint64 = 14695981039346656037
	for _, a := range b.refs {
		d = (d ^ a.exact ^ uint64(a.rows)) * 1099511628211
	}
	return d
}

func (b *bench) resetLayerCounters() { b.countersBase = b.sys.counterSnapshot() }

// noteShares records the input-dependent shares a gain may rest on:
// how the plan cache answered during the loop, how many columnar
// segments zone maps skipped, and how many pass entries repeat an
// earlier entry's exact binding. Workloads that bypass a layer read 0.
func (b *bench) noteShares(rep *report, before, after map[string]int64) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	share := func(a, total float64) float64 {
		if total == 0 {
			return 0
		}
		return a / total
	}
	h, rb, m, rj := d("robustqo_plancache_hits_total"), d("robustqo_plancache_rebinds_total"),
		d("robustqo_plancache_misses_total"), d("robustqo_plancache_rejects_total")
	lookups := h + rb + m + rj
	skipped, scanned := d("robustqo_columnar_segments_skipped_total"), d("robustqo_columnar_segments_scanned_total")
	seen := map[string]bool{}
	repeats := 0
	for _, q := range b.pass {
		if seen[q.key] {
			repeats++
		}
		seen[q.key] = true
	}
	rep.note("shares: plancache hit=%.4f rebind=%.4f miss=%.4f reject=%.4f; colstore segments skipped=%.4f; repeated bindings within a pass=%.4f",
		share(h, lookups), share(rb, lookups), share(m, lookups), share(rj, lookups),
		share(skipped, skipped+scanned), share(float64(repeats), float64(len(b.pass))))
}

// loopResult is what one closed loop measured.
type loopResult struct {
	attempted, failed, mismatches int64
	firstErr                      string
	lat                           [][]time.Duration // completed queries' latencies, by pass
	wall                          time.Duration
	passes                        []time.Duration // wall time of each pass
	// first holds each pass index's first outcome in this loop (rows
	// dropped), so simulated costs and counters cover exactly one pass.
	first []outcome
	// clients are the loop's callers, for their traced accumulators.
	clients []*client
}

// loop runs the closed loop: each client claims the next pass index,
// runs that query, checks its answer and claims again. Once dur has
// passed, claiming stops at the next pass boundary, so every loop runs
// whole passes and its query mix is exactly the pass's. dur == 0 runs
// one pass.
func (b *bench) loop(dur time.Duration, tr *traceSet) *loopResult {
	n := int64(len(b.pass))
	res := &loopResult{first: make([]outcome, n)}
	type done struct {
		i        int64
		end      time.Duration // since start
		lat      time.Duration
		err      string
		mismatch bool
	}
	// Every loop starts from a fresh heap cycle, so garbage left by the
	// set-up, the references or an earlier loop is not collected on its
	// clock.
	runtime.GC()
	var next, stop atomic.Int64
	stop.Store(math.MaxInt64)
	var mu sync.Mutex
	var all []done
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < b.clients; ci++ {
		c := &client{}
		if tr != nil {
			c.tr = tr.clients[ci]
			c.ops = map[string]time.Duration{}
		}
		res.clients = append(res.clients, c)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var mine []done
			for {
				i := next.Add(1) - 1
				if time.Since(start) >= dur {
					stop.CompareAndSwap(math.MaxInt64, (i/n+1)*n)
				}
				if i >= stop.Load() {
					break
				}
				q := b.pass[i%n]
				root := c.tr.begin(spQuery, i)
				t0 := time.Now()
				out, err := b.sys.run(c, q)
				d := time.Since(t0)
				if err != nil {
					c.tr.end(root)
					mine = append(mine, done{i: i, err: err.Error()})
					continue
				}
				sp := c.tr.begin(spCheck, i)
				ok := b.refs[i%n].matches(out.rows)
				c.tr.end(sp)
				c.tr.end(root)
				c.rowsOut += int64(len(out.rows))
				if !ok {
					mine = append(mine, done{i: i, mismatch: true,
						err: fmt.Sprintf("wrong answer (%d rows, want %d)", len(out.rows), b.refs[i%n].rows)})
					continue
				}
				mine = append(mine, done{i: i, lat: d, end: time.Since(start)})
				if i < n {
					out.rows = nil
					res.first[i] = out
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	// A client can claim the first index of a new pass just before
	// another sets the stop; such a query is not counted.
	last := stop.Load()
	passEnd := make([]time.Duration, last/n)
	res.lat = make([][]time.Duration, last/n)
	for _, d := range all {
		if d.i >= last {
			continue
		}
		if p := d.i / n; d.end > passEnd[p] {
			passEnd[p] = d.end
		}
		res.attempted++
		switch {
		case d.err != "":
			res.failed++
			if d.mismatch {
				res.mismatches++
			}
			if res.firstErr == "" {
				res.firstErr = b.pass[d.i%n].key + ": " + d.err
			}
		default:
			res.lat[d.i/n] = append(res.lat[d.i/n], d.lat)
		}
	}
	var prev time.Duration
	for _, e := range passEnd {
		res.passes = append(res.passes, e-prev)
		prev = e
	}
	return res
}

// qps is the pass length over the median pass's wall time: the loop
// runs whole passes, and the median damps a pass slowed by the host.
func (r *loopResult) qps() float64 {
	ps := append([]time.Duration(nil), r.passes...)
	sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	return float64(len(r.first)) / ps[len(ps)/2].Seconds()
}

// sims returns the simulated seconds of the first pass, one value per
// data point, optionally restricted to one estimator mode.
func (r *loopResult) sims(pass []*query, mode string) []float64 {
	var out []float64
	index := map[string]int{}
	var counts []float64
	for i, o := range r.first {
		q := pass[i]
		if mode != "" && q.mode != mode {
			continue
		}
		if q.point == "" {
			out = append(out, o.sim)
			counts = append(counts, 1)
			continue
		}
		j, ok := index[q.point]
		if !ok {
			j = len(out)
			index[q.point] = j
			out = append(out, 0)
			counts = append(counts, 0)
		}
		out[j] += o.sim
		counts[j]++
	}
	for j := range out {
		out[j] /= counts[j]
	}
	return out
}

// report adds the end-to-end metrics of a loop and its context lines.
func (r *loopResult) report(rep *report, b *bench) {
	rep.Attempted += r.attempted
	rep.Failed += r.failed
	rep.Correct = rep.Correct && r.mismatches == 0
	if r.firstErr != "" {
		rep.note("first failure: %s", r.firstErr)
	}
	// p50 is the median of the passes' medians; p95 pools every
	// sample, so at least ten lie beyond it.
	var ms, p50s []float64
	for _, lat := range r.lat {
		pass := make([]float64, len(lat))
		for i, d := range lat {
			pass[i] = float64(d) / float64(time.Millisecond)
		}
		ms = append(ms, pass...)
		sort.Float64s(pass)
		m, _ := percentile(pass, 0.5)
		p50s = append(p50s, m)
	}
	sort.Float64s(ms)
	sort.Float64s(p50s)
	p95, beyond := percentile(ms, 0.95)
	p50, _ := percentile(p50s, 0.5)
	rep.note("loop: %d attempted, %d failed (%d wrong answers), %d latency samples, %d beyond p95, %.3f s wall",
		r.attempted, r.failed, r.mismatches, len(ms), beyond, r.wall.Seconds())
	rep.note("error_rate %.6g", float64(r.failed)/float64(r.attempted))
	rep.note("pass seconds %v", r.passes)

	var tot cost.Counters
	for _, o := range r.first {
		tot.Add(o.counters)
	}
	// The histogram runs are the baseline the paper compares against,
	// reported per layer; the end-to-end costs are the robust plans'.
	var sims []float64
	for _, mode := range []string{"t50", "t80", "t95"} {
		sims = append(sims, r.sims(b.pass, mode)...)
	}
	simP95 := quantileOf(sims, 0.95)
	simMean := mean(sims)
	rep.note("first-pass counters: seq_pages=%d rand_pages=%d tuples=%d (%s)", tot.SeqPages, tot.RandPages, tot.Tuples, tot)
	rep.note("first-pass sim_cost_mean_s=%v sim_cost_p95_s=%v", simMean, simP95)

	rep.set("qps", r.qps(), "queries/s")
	rep.set("latency_p50_ms", p50, "ms")
	rep.set("latency_p95_ms", p95, "ms")
	rep.set("sim_cost_mean_s", simMean, "s")
	rep.set("sim_cost_p95_s", simP95, "s")
	rep.set("success_rate", 1-float64(r.failed)/float64(r.attempted), "fraction")
}

// percentile returns the nearest-rank p-quantile of sorted values and
// the number of samples beyond it.
func percentile(sorted []float64, p float64) (float64, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k], len(sorted) - 1 - k
}

// quantileOf is percentile over a sorted copy of xs.
func quantileOf(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	v, _ := percentile(sorted, p)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// durationsMicros returns the sorted durations, in microseconds.
func durationsMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}
