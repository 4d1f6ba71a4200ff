// Command bench runs the executor's gate benchmarks and writes one JSON
// report per bench, BENCH_<name>.json, to the working directory. Each
// bench times its workload and checks what plan choice must never
// change: identical rows and cost counters across DOP, scan mode and
// shard layout, exact page accounting after pruning, and estimates that
// pruning or zone maps only tighten.
//
//	go run ./cmd/bench             # every bench
//	go run ./cmd/bench serve join  # the named benches
//
// Wall-clock gates that need real parallelism are waived on machines
// with fewer than 4 CPUs and listed in the report's waived_gates; every
// other gate is enforced everywhere. The command exits 1 when any gate
// fails and 2 on an unknown bench name.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/tpch"
)

// minClockCPUs is the core count a DOP-4 or concurrent-load wall-clock
// gate needs to mean anything; below it those gates are waived.
const minClockCPUs = 4

// Sample seeds for the benches that build an estimator.
const (
	seedSynopsis = 2005 ^ 0x5a4d
	seedCache    = 2005 ^ 0xbeef
)

// bench is one gate benchmark: run measures the workload and returns
// the report to write and the gates to check.
type bench struct {
	name string
	run  func() (report, []gate, error)
}

var benches = []bench{
	{"obs", runObs},
	{"parallel", runParallel},
	{"join", runJoin},
	{"shard", runShard},
	{"serve", runServe},
	{"columnar", runColumnar},
}

func main() {
	todo, err := pick(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	failed := false
	for _, b := range todo {
		if err := runBench(b); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", b.name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// pick returns the named benches in the order given, or every bench
// when names is empty.
func pick(names []string) ([]bench, error) {
	if len(names) == 0 {
		return benches, nil
	}
	var out []bench
	for _, name := range names {
		i := slices.IndexFunc(benches, func(b bench) bool { return b.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown bench %q; usage: bench [obs|parallel|join|shard|serve|columnar]...", name)
		}
		out = append(out, benches[i])
	}
	return out, nil
}

// runBench runs one bench, records the waived gates, writes its report
// even when gates fail, and returns every failed gate.
func runBench(b bench) error {
	rep, gates, err := b.run()
	if err != nil {
		return err
	}
	h := rep.head()
	h.NumCPU = runtime.NumCPU()
	waived, gateErr := check(gates, h.NumCPU)
	h.WaivedGates = waived
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := "BENCH_" + b.name + ".json"
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: report %s, waived %v\n", b.name, path, waived)
	return gateErr
}

// header opens every report.
type header struct {
	NumCPU      int      `json:"num_cpu"`
	WaivedGates []string `json:"waived_gates"`
}

func (h *header) head() *header { return h }

// report is a bench's JSON report; each embeds header.
type report interface{ head() *header }

// gate is one pass/fail check. A clock gate measures wall-clock
// parallelism and is waived below minClockCPUs; fail says what went
// wrong when ok is false.
type gate struct {
	name  string
	ok    bool
	clock bool
	fail  string
}

// check returns the names of the gates waived on a numCPU machine and
// an error joining every enforced gate that failed.
func check(gates []gate, numCPU int) ([]string, error) {
	waived := []string{}
	var errs []error
	for _, g := range gates {
		switch {
		case g.clock && numCPU < minClockCPUs:
			waived = append(waived, g.name)
		case !g.ok:
			errs = append(errs, fmt.Errorf("gate %s: %s", g.name, g.fail))
		}
	}
	return waived, errors.Join(errs...)
}

// setup generates the database and its execution context. A nonzero
// sampleSeed also builds the sample synopses and a T=0.8 Bayes
// estimator over them.
func setup(cfg tpch.Config, sampleSeed uint64) (*storage.Database, *engine.Context, *core.BayesEstimator, error) {
	db, err := tpch.Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx, err := engine.NewContext(db)
	if err != nil || sampleSeed == 0 {
		return db, ctx, nil, err
	}
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(sampleSeed))
	if err != nil {
		return nil, nil, nil, err
	}
	est, err := core.NewBayesEstimator(syn, core.ConfidenceThreshold(0.8))
	return db, ctx, est, err
}

// timeBest times each op with testing.Benchmark in reps alternating
// rounds (A B C A B C …), so drift hits every op alike, and returns each
// op's best ns/op.
func timeBest(reps int, ops ...func() error) ([]float64, error) {
	best := make([]float64, len(ops))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for r := 0; r < reps; r++ {
		for i, op := range ops {
			var opErr error
			res := testing.Benchmark(func(b *testing.B) {
				for j := 0; j < b.N; j++ {
					if err := op(); err != nil {
						opErr = err
						b.FailNow()
					}
				}
			})
			if opErr != nil {
				return nil, opErr
			}
			best[i] = math.Min(best[i], float64(res.NsPerOp()))
		}
	}
	return best, nil
}

// timePlans times full drains of each plan with timeBest.
func timePlans(ctx *engine.Context, reps int, plans ...engine.Node) ([]float64, error) {
	ops := make([]func() error, len(plans))
	for i, n := range plans {
		ops[i] = func() error {
			var c cost.Counters
			_, err := n.Execute(ctx, &c)
			return err
		}
	}
	return timeBest(reps, ops...)
}

// identity drains every plan and compares an fnv digest of its rows, in
// order, and its cost counters against the first plan's. It returns the
// first plan's row count.
func identity(ctx *engine.Context, plans ...engine.Node) (rows int, sameRows, sameCounters bool, err error) {
	sameRows, sameCounters = true, true
	var baseHash uint64
	var baseCounters cost.Counters
	for i, n := range plans {
		var c cost.Counters
		res, err := n.Execute(ctx, &c)
		if err != nil {
			return 0, false, false, fmt.Errorf("%s: %v", n.Describe(), err)
		}
		h := fnv.New64a()
		for _, r := range res.Rows {
			for _, v := range r {
				fmt.Fprint(h, v.String(), "\x1f")
			}
			fmt.Fprint(h, "\x1e")
		}
		if i == 0 {
			baseHash, baseCounters, rows = h.Sum64(), c, len(res.Rows)
			continue
		}
		sameRows = sameRows && h.Sum64() == baseHash
		sameCounters = sameCounters && c == baseCounters
	}
	return rows, sameRows, sameCounters, nil
}

// identityGates are the two gates every identity check feeds.
func identityGates(what string, sameRows, sameCounters bool) []gate {
	return []gate{
		{name: "identical_rows", ok: sameRows, fail: what + " rows diverge"},
		{name: "identical_counters", ok: sameCounters, fail: what + " counters diverge"},
	}
}

// workload is the report of one plan drained at DOP 1, 2, and 4.
type workload struct {
	Name              string  `json:"name"`
	SerialNsPerOp     float64 `json:"serial_ns_per_op"`
	DOP2NsPerOp       float64 `json:"dop2_ns_per_op"`
	DOP4NsPerOp       float64 `json:"dop4_ns_per_op"`
	SpeedupDOP2       float64 `json:"speedup_dop2"`
	SpeedupDOP4       float64 `json:"speedup_dop4"`
	Rows              int     `json:"rows"`
	IdenticalRows     bool    `json:"identical_rows"`
	IdenticalCounters bool    `json:"identical_counters"`
}

// measureDOP drains the plan at DOP 1, 2, and 4, checking rows and
// counters against serial, and times each DOP best-of-reps.
func measureDOP(ctx *engine.Context, name string, reps int, plan func(dop int) engine.Node) (workload, error) {
	plans := []engine.Node{plan(1), plan(2), plan(4)}
	w := workload{Name: name}
	var err error
	if w.Rows, w.IdenticalRows, w.IdenticalCounters, err = identity(ctx, plans...); err != nil {
		return w, err
	}
	t, err := timePlans(ctx, reps, plans...)
	if err != nil {
		return w, err
	}
	w.SerialNsPerOp, w.DOP2NsPerOp, w.DOP4NsPerOp = t[0], t[1], t[2]
	w.SpeedupDOP2, w.SpeedupDOP4 = t[0]/t[1], t[0]/t[2]
	return w, nil
}

// exchange wraps n in an Exchange at dop, or returns n alone for dop <= 1.
func exchange(n engine.Node, dop int) engine.Node {
	if dop > 1 {
		return &engine.Exchange{Source: n, DOP: dop}
	}
	return n
}

// first returns the first node under root, depth first, that match
// accepts, or nil.
func first(root engine.Node, match func(engine.Node) bool) engine.Node {
	var found engine.Node
	engine.Walk(root, func(n engine.Node) bool {
		if found == nil && match(n) {
			found = n
		}
		return found == nil
	})
	return found
}
