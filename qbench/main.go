// Command qbench is the repository's end-to-end benchmark. One command
// builds a workload's data from a seed, runs the workload as a closed
// loop for a fixed time, checks every answer against a reference, and
// prints the end-to-end metrics (with --trace 0) or the per-layer
// metrics of a separate traced run (with --trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//   - serve_mix: short dashboard and ad-hoc queries from 2 clients
//     through the serve pipeline, over date-clustered columnar data.
//   - analytic: heavy scans, joins and drains from 1 client at DOP 2
//     through the serve pipeline, over the row store.
//   - robust_sweep: the paper's three experiments at T = 50/80/95% and
//     under histograms, through the root Session API.
//
// Run it from the repository root with qbench/run.sh, which builds the
// binary first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A run builds its workload's data at least minSetupReps times, and
// more while the builds so far took under setupBudget, up to
// maxSetupReps. setup_s is the median; the last build is the one
// measured.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupBudget  = 2 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	// scale shrinks every data set and pass; tests use it to stay fast.
	scale float64
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed for data, synopses and the query sequence")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds the closed loop measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", ".bench_build", "directory the span trace is written to")
	flag.Parse()
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace == 1
	o.scale = 1
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	context   []string          // human-readable lines printed before the result
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) note(format string, args ...any) {
	r.context = append(r.context, fmt.Sprintf(format, args...))
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print(w *os.File) {
	for _, l := range r.context {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "metric %-44s %.6g %s\n", n, m.Value, m.Unit)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(w, string(raw))
}

func run(o options) (*report, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	rep.note("workload %s seed %d seconds %g trace %v", o.workload, o.seed, o.seconds, o.trace)
	rep.note("context num_cpu=%d GOMAXPROCS=%d go=%s commit=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), commit())

	var (
		b     *bench
		times []setupTimes
		spent time.Duration
	)
	for i := 0; i < minSetupReps || (i < maxSetupReps && spent < setupBudget); i++ {
		b = nil // let the previous build go before the next one allocates
		runtime.GC()
		var st setupTimes
		var err error
		b, st, err = wl.build(o.seed, o.scale)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, st)
		spent += st.total()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	setup, setupTotal := medianSetup(times)

	t0 := time.Now()
	if err := b.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	rep.note("reference answers computed in %.3f s", time.Since(t0).Seconds())
	rep.note("queries per pass %d (%d distinct), clients %d, dop %d", len(b.pass), b.distinct(), b.clients, b.dop)
	rep.note("sequence digest %016x", b.sequenceDigest())
	rep.note("answers digest %016x", b.answersDigest())

	dur := time.Duration(o.seconds * float64(time.Second))
	// Warm-up: one full pass fills caches and finishes lazy set-up; its
	// answers are checked and counted like every other.
	warm := b.loop(0, nil)
	rep.note("warm-up pass: %.3f s", warm.wall.Seconds())
	if warm.firstErr != "" {
		rep.note("warm-up failure: %s", warm.firstErr)
	}
	rep.Attempted, rep.Failed, rep.Correct = warm.attempted, warm.failed, warm.mismatches == 0

	if !o.trace {
		before := b.sys.counterSnapshot()
		res := b.loop(dur, nil)
		b.noteShares(rep, before, b.sys.counterSnapshot())
		res.report(rep, b)
		rep.set("setup_s", setupTotal, "s")
		rep.set("heap_live_mb", heapMB, "MB")
		return rep, nil
	}

	// Traced run: an untraced loop and a traced loop of equal length,
	// so the tracing overhead is measured on the same build.
	plain := b.loop(dur, nil)
	b.resetLayerCounters()
	tr := newTraceSet(b.clients)
	traced := b.loop(dur, tr)
	b.noteShares(rep, b.countersBase, b.sys.counterSnapshot())
	traced.report(rep, b) // counts the traced answers; metrics replaced below
	rep.Metrics = b.layerMetrics(traced, tr)
	setup.report(rep)
	qpsPlain, qpsTraced := plain.qps(), traced.qps()
	rep.set("trace.qps_untraced", qpsPlain, "queries/s")
	rep.set("trace.qps_traced", qpsTraced, "queries/s")
	rep.set("trace.overhead_share", 1-qpsTraced/qpsPlain, "fraction")
	rep.note("tracing overhead: %.1f qps untraced, %.1f qps traced (%.2f%% slower)",
		qpsPlain, qpsTraced, 100*(1-qpsTraced/qpsPlain))
	path, n, err := tr.write(o.outDir, o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	rep.note("trace: %d spans written to %s", n, path)
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	rep.Correct = rep.Correct && plain.mismatches == 0
	return rep, nil
}

// commit names the source revision the binary was built from, when the
// build recorded one (a git checkout); otherwise "unknown".
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
