package main

// Plumbing shared by the query, sql, serve, and ledger subcommands:
// database and estimator construction, and trace export.

import (
	"fmt"
	"os"

	"robustqo/internal/core"
	"robustqo/internal/engine"
	"robustqo/internal/histogram"
	"robustqo/internal/obs"
	"robustqo/internal/sample"
	"robustqo/internal/stats"
	"robustqo/internal/tpch"
)

// buildSystem generates the TPC-H-like database, indexes it, and builds
// the named cardinality estimator over it.
func buildSystem(cfg tpch.Config, estimator string, threshold float64, sampleSize int) (*engine.Context, core.Estimator, error) {
	db, err := tpch.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		return nil, nil, err
	}
	switch estimator {
	case "robust":
		syn, err := sample.BuildAll(db, sampleSize, stats.NewRNG(cfg.Seed^0xbeef))
		if err != nil {
			return nil, nil, err
		}
		est, err := core.NewBayesEstimator(syn, core.ConfidenceThreshold(threshold))
		return ctx, est, err
	case "histogram":
		hists, err := histogram.BuildAll(db)
		if err != nil {
			return nil, nil, err
		}
		est, err := core.NewHistogramEstimator(hists, db.Catalog)
		return ctx, est, err
	default:
		return nil, nil, fmt.Errorf("unknown estimator %q", estimator)
	}
}

// exportTrace writes the trace to path in the requested format.
func exportTrace(tr *obs.Trace, path, format string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		err = tr.WriteJSON(fh)
	case "chrome":
		err = tr.WriteChrome(fh)
	default:
		err = fmt.Errorf("unknown trace format %q (want json or chrome)", format)
	}
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}
