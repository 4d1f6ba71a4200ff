// Command robustqo drives the reproduction: it regenerates any figure of
// the paper, lists the available experiments, and runs ad-hoc queries
// against a generated TPC-H-like database under either estimator.
//
// Usage:
//
//	robustqo list
//	robustqo experiment all | fig5 fig9 ... [flags]
//	robustqo query [flags] '<predicate over lineitem>'
//
// Run `robustqo <subcommand> -h` for per-subcommand flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"robustqo/internal/colstore"
	"robustqo/internal/engine"
	"robustqo/internal/experiments"
	"robustqo/internal/expr"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/session"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "robustqo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return runList(out)
	case "experiment":
		return runExperiment(args[1:], out)
	case "query":
		return runQuery(args[1:], out)
	case "sql":
		return runSQL(args[1:], out)
	case "serve":
		return runServe(args[1:], out)
	case "ledger":
		return runLedger(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprint(out, `robustqo — robust query optimizer reproduction (SIGMOD 2005)

Subcommands:
  list                      list experiment ids (figures of the paper)
  experiment <ids...|all>   regenerate figures; -h for scaling flags
  query '<predicate>'       optimize+run a lineitem aggregate; -h for flags
  sql 'SELECT ...'          optimize+run a full SELECT over the TPC-H-like
                            schema (lineitem, orders, part); -h for flags
  serve                     debug HTTP server: /metrics, /query, pprof,
                            /debug/queries (in-flight progress + slow log),
                            /debug/ledger (cardinality feedback);
                            -debug-addr to pick the listen address
  ledger run|top|drift      run the feedback corpus and persist the
                            cardinality ledger; inspect a persisted ledger

query and sql accept -analyze (EXPLAIN ANALYZE: estimated vs actual rows
and Q-error per operator), -trace-out FILE [-trace-format json|chrome]
to export an optimizer+execution trace, and -partitions N to
range-partition lineitem on l_shipdate (pruned scans show up in the plan
and in EXPLAIN ANALYZE as "partitions: k/n"). sql also accepts -columnar
to build compressed columnar encodings (encoded scans, zone-map segment
skipping, late materialization; EXPLAIN ANALYZE shows "segments: k/n
skipped") and -cluster to lay lineitem out in ship-date order so the
date zone maps are selective.
`)
}

func runList(out io.Writer) error {
	for _, id := range experiments.IDs() {
		fmt.Fprintln(out, id)
	}
	return nil
}

func runExperiment(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiment", flag.ContinueOnError)
	fs.SetOutput(out)
	def := experiments.DefaultSystemConfig()
	lines := fs.Int("lines", def.Lines, "lineitem rows for Experiments 1-2")
	parts := fs.Int("parts", def.Parts, "part rows for Experiment 2")
	fact := fs.Int("fact", def.FactRows, "fact rows for Experiment 3")
	dims := fs.Int("dimrows", def.DimRows, "dimension rows for Experiment 3")
	sampleSize := fs.Int("samplesize", def.SampleSize, "synopsis tuples")
	samples := fs.Int("samples", def.Samples, "independent sample sets to average over")
	seed := fs.Uint64("seed", def.Seed, "base random seed")
	format := fs.String("format", "text", "output format: text or csv")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("experiment: name at least one figure id or 'all'")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	cfg := def
	cfg.Lines = *lines
	cfg.Parts = *parts
	cfg.FactRows = *fact
	cfg.DimRows = *dims
	cfg.SampleSize = *sampleSize
	cfg.Samples = *samples
	cfg.Seed = *seed
	for _, id := range ids {
		figs, err := experiments.Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", id, err)
		}
		for _, f := range figs {
			switch *format {
			case "text":
				if err := f.Render(out); err != nil {
					return err
				}
			case "csv":
				if err := f.CSV(out); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unknown format %q", *format)
			}
		}
	}
	return nil
}

// queryFlags are the flags the query and sql subcommands share; sql
// alone registers cluster and columnar.
type queryFlags struct {
	lines       int
	threshold   float64
	estimator   string
	sampleSize  int
	seed        uint64
	explainOnly bool
	dop         int
	partitions  int
	cluster     bool
	columnar    bool
	analyze     bool
	traceOut    string
	traceFormat string
}

func (f *queryFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&f.lines, "lines", 60000, "lineitem rows to generate")
	fs.Float64Var(&f.threshold, "threshold", 0.8, "confidence threshold in (0,1)")
	fs.StringVar(&f.estimator, "estimator", "robust", "cardinality estimator: robust or histogram")
	fs.IntVar(&f.sampleSize, "samplesize", sample.DefaultSize, "synopsis tuples")
	fs.Uint64Var(&f.seed, "seed", 2005, "random seed")
	fs.BoolVar(&f.explainOnly, "explain", false, "print the plan without executing")
	fs.IntVar(&f.dop, "parallelism", 1, "max degree of parallelism for eligible scans (1 = serial)")
	fs.IntVar(&f.partitions, "partitions", 1, "range-partition lineitem on l_shipdate into this many shards (1 = unpartitioned)")
	fs.BoolVar(&f.analyze, "analyze", false,
		"print the EXPLAIN ANALYZE plan tree (estimated vs actual rows, Q-error, timings)")
	fs.StringVar(&f.traceOut, "trace-out", "",
		"write the optimizer+execution trace to this file")
	fs.StringVar(&f.traceFormat, "trace-format", "json",
		"trace file format: json or chrome (chrome://tracing)")
}

// run generates the database and sends q through the query pipeline:
// it prints the plan and, unless -explain, the simulated execution, the
// EXPLAIN ANALYZE tree when asked, and the trace export. It returns the
// result for the caller to print, or nil under -explain.
func (f *queryFlags) run(q *optimizer.Query, out io.Writer) (*engine.Result, error) {
	fmt.Fprintf(out, "generating TPC-H-like data (%d lineitem rows)...\n", f.lines)
	ctx, est, err := buildSystem(tpch.Config{Lines: f.lines, Partitions: f.partitions, Seed: f.seed, ClusterDates: f.cluster},
		f.estimator, f.threshold, f.sampleSize)
	if err != nil {
		return nil, err
	}
	ctx.Metrics = obs.Default
	if f.columnar {
		encs, err := colstore.BuildAll(ctx.DB)
		if err != nil {
			return nil, err
		}
		ctx.Encodings = encs
		fmt.Fprintf(out, "columnar encodings: %d bytes raw -> %d bytes encoded (%.1fx)\n",
			encs.RawBytes(), encs.EncodedBytes(), float64(encs.RawBytes())/float64(encs.EncodedBytes()))
	}
	var tr *obs.Trace // non-nil only when an export was requested
	if f.traceOut != "" {
		tr = obs.NewTrace("robustqo")
	}
	pipe := session.Pipeline{Ctx: ctx, DOP: f.dop, Metrics: obs.Default, Trace: tr}
	if f.explainOnly {
		plan, _, err := pipe.Plan(q, est)
		if err != nil {
			return nil, err
		}
		printPlan(out, plan)
		return nil, nil
	}
	x, err := pipe.Run(context.Background(), "", q, est)
	if x != nil {
		printPlan(out, x.Plan)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "simulated execution: %.4f s  (%s)\n", ctx.Model.Time(x.Counters), x.Counters)
	if f.analyze {
		fmt.Fprint(out, "EXPLAIN ANALYZE:\n")
		fmt.Fprint(out, engine.ExplainAnalyze(x.Inst, engine.AnalyzeOptions{
			EstimateOf: x.Plan.EstimateOf,
			Timings:    true,
		}))
	}
	if f.traceOut != "" {
		if err := exportTrace(tr, f.traceOut, f.traceFormat); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace written to %s (%d spans, %s format)\n", f.traceOut, tr.Len(), f.traceFormat)
	}
	return x.Result, nil
}

func printPlan(out io.Writer, plan *optimizer.Plan) {
	fmt.Fprintf(out, "estimator: %s\nestimated cost: %.4f s, estimated rows: %.1f\nplan:\n%s",
		plan.Estimator, plan.EstCost, plan.EstRows, plan.Explain())
}

func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(out)
	var f queryFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("query: provide exactly one predicate string (got %d args)", fs.NArg())
	}
	pred, err := expr.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := f.run(&optimizer.Query{
		Tables: []string{"lineitem"},
		Pred:   pred,
		Aggs: []engine.AggSpec{
			{Func: engine.Count, As: "n"},
			{Func: engine.Sum, Arg: expr.TC("lineitem", "l_extendedprice"), As: "revenue"},
		},
	}, out)
	if err != nil || res == nil {
		return err
	}
	header := make([]string, len(res.Schema.Fields))
	for i, f := range res.Schema.Fields {
		header[i] = f.Column
	}
	fmt.Fprintln(out, strings.Join(header, "\t"))
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
	}
	return nil
}

func runSQL(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sql", flag.ContinueOnError)
	fs.SetOutput(out)
	var f queryFlags
	f.register(fs)
	fs.BoolVar(&f.columnar, "columnar", false, "build compressed columnar encodings; scans decode them and zone maps skip segments")
	fs.BoolVar(&f.cluster, "cluster", false, "lay lineitem out in l_shipdate order so date zone maps are selective")
	maxRows := fs.Int("maxrows", 20, "print at most this many result rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sql: provide exactly one SELECT statement (got %d args)", fs.NArg())
	}
	q, err := sqlparse.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := f.run(q, out)
	if err != nil || res == nil {
		return err
	}
	header := make([]string, len(res.Schema.Fields))
	for i, f := range res.Schema.Fields {
		if f.Table != "" {
			header[i] = f.Table + "." + f.Column
		} else {
			header[i] = f.Column
		}
	}
	fmt.Fprintln(out, strings.Join(header, "\t"))
	shown := 0
	for _, r := range res.Rows {
		if shown >= *maxRows {
			fmt.Fprintf(out, "... (%d more rows)\n", len(res.Rows)-shown)
			break
		}
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(cells, "\t"))
		shown++
	}
	fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
	return nil
}
