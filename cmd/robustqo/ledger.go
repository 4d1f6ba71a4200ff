package main

// The ledger subcommand drives the cardinality feedback ledger from the
// command line:
//
//	robustqo ledger run    run the built-in 40-query corpus, persist the
//	                       ledger (and optionally a slow-query log and
//	                       event log), and print the worst offenders
//	robustqo ledger top    print the top-N worst Q-error fingerprints of
//	                       a persisted ledger
//	robustqo ledger drift  print per-table drift summaries of a
//	                       persisted ledger
//
// The persisted file carries a format-version header (see
// internal/obs/ledger); top and drift refuse files written by a
// different format version instead of misreading them.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"robustqo/internal/obs"
	"robustqo/internal/obs/ledger"
	"robustqo/internal/sample"
	"robustqo/internal/session"
	"robustqo/internal/sqlparse"
	"robustqo/internal/tpch"
)

func runLedger(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("ledger: need a subcommand: run, top, or drift")
	}
	switch args[0] {
	case "run":
		return runLedgerRun(args[1:], out)
	case "top":
		return runLedgerTop(args[1:], out)
	case "drift":
		return runLedgerDrift(args[1:], out)
	default:
		return fmt.Errorf("ledger: unknown subcommand %q (want run, top, or drift)", args[0])
	}
}

func runLedgerRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger run", flag.ContinueOnError)
	fs.SetOutput(out)
	lines := fs.Int("lines", 60000, "lineitem rows to generate")
	threshold := fs.Float64("threshold", 0.8, "confidence threshold in (0,1)")
	estimator := fs.String("estimator", "robust", "cardinality estimator: robust or histogram")
	sampleSize := fs.Int("samplesize", sample.DefaultSize, "synopsis tuples")
	seed := fs.Uint64("seed", 2005, "random seed")
	dop := fs.Int("parallelism", 1, "max degree of parallelism for eligible scans (1 = serial)")
	partitions := fs.Int("partitions", 1, "range-partition lineitem on l_shipdate into this many shards")
	outFile := fs.String("out", "ledger.bin", "persist the ledger to this file")
	maxEntries := fs.Int("max-entries", 0, "ledger entry bound (0 = default)")
	topN := fs.Int("n", 10, "print this many worst fingerprints after the run")
	slowLogFile := fs.String("slow-log", "", "append slow-query JSON lines to this file")
	slowMS := fs.Int("slow-query-ms", 100, "slow-query latency threshold in milliseconds")
	eventsFile := fs.String("events", "", "append query-lifecycle JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("ledger run: unexpected arguments %v", fs.Args())
	}
	fmt.Fprintf(out, "generating TPC-H-like data (%d lineitem rows)...\n", *lines)
	ctx, est, err := buildSystem(tpch.Config{Lines: *lines, Partitions: *partitions, Seed: *seed},
		*estimator, *threshold, *sampleSize)
	if err != nil {
		return err
	}
	ctx.Metrics = obs.Default
	led := ledger.New(*maxEntries)
	led.Metrics = obs.Default

	var events *obs.EventLog
	if *eventsFile != "" {
		fh, err := os.Create(*eventsFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		events = obs.NewEventLog(fh)
		events.Now = time.Now
	}
	var slowMirror io.Writer
	if *slowLogFile != "" {
		fh, err := os.Create(*slowLogFile)
		if err != nil {
			return err
		}
		defer fh.Close()
		slowMirror = fh
	}
	slow := obs.NewSlowLog(0, slowMirror)
	pipe := session.Pipeline{
		Ctx:       ctx,
		DOP:       *dop,
		Metrics:   obs.Default,
		Ledger:    led,
		Live:      obs.NewActiveQueries(),
		Events:    events,
		Slow:      slow,
		SlowAfter: time.Duration(*slowMS) * time.Millisecond,
	}

	queries := tpch.FeedbackCorpus()
	for _, sqlText := range queries {
		q, err := sqlparse.Parse(sqlText)
		if err == nil {
			_, err = pipe.Run(context.Background(), sqlText, q, est)
		}
		if err != nil {
			return fmt.Errorf("corpus query %q: %v", sqlText, err)
		}
	}
	fh, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	if err := led.Save(fh); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	if err := events.Err(); err != nil {
		return err
	}
	if err := slow.Err(); err != nil {
		return err
	}
	fmt.Fprintf(out, "ran %d queries; ledger has %d fingerprints (%d observations, %d dropped); saved to %s\n",
		len(queries), led.Len(), led.Ordinal(), led.Dropped(), *outFile)
	if n := len(slow.Recent()); n > 0 {
		fmt.Fprintf(out, "%d queries exceeded the %dms slow-query threshold\n", n, *slowMS)
	}
	fmt.Fprintf(out, "\nworst %d fingerprints by Q-error:\n", *topN)
	renderTop(out, led.TopQError(*topN))
	fmt.Fprintf(out, "\nper-table drift:\n")
	renderDrift(out, led.Drift())
	return nil
}

func runLedgerTop(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger top", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "ledger.bin", "persisted ledger file")
	n := fs.Int("n", 10, "how many fingerprints to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	led, err := loadLedgerFile(*in)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d fingerprints, %d observations, %d dropped\n\n",
		led.Len(), led.Ordinal(), led.Dropped())
	renderTop(out, led.TopQError(*n))
	return nil
}

func runLedgerDrift(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ledger drift", flag.ContinueOnError)
	fs.SetOutput(out)
	in := fs.String("in", "ledger.bin", "persisted ledger file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	led, err := loadLedgerFile(*in)
	if err != nil {
		return err
	}
	renderDrift(out, led.Drift())
	return nil
}

func loadLedgerFile(path string) (*ledger.Ledger, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ledger.Load(fh)
}

// renderTop prints worst-Q-error fingerprints as an aligned table.
func renderTop(out io.Writer, entries []ledger.Entry) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "maxQ\tgeoQ\tn\tover/under\tlast est\tlast act\tT\tfingerprint")
	for _, e := range entries {
		fmt.Fprintf(tw, "%.2f\t%.2f\t%d\t%d/%d\t%.1f\t%d\t%g\t%s\n",
			e.MaxQError, e.GeoMeanQError(), e.Count, e.OverCount, e.UnderCnt,
			e.LastEstRows, e.LastActual, e.LastPercentil, e.Fingerprint)
	}
	tw.Flush()
}

// renderDrift prints per-table drift summaries as an aligned table.
func renderDrift(out io.Writer, drifts []ledger.TableDrift) {
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "table\tfingerprints\tn\tgeoQ\tmaxQ\tover/under")
	for _, d := range drifts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%d/%d\n",
			d.Table, d.Fingerprints, d.Count, d.GeoMeanQ, d.MaxQ, d.OverCount, d.UnderCount)
	}
	tw.Flush()
}
