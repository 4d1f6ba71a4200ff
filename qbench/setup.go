package main

import (
	"sort"
	"time"
)

// setupTimes splits one build of a workload's data into its stages.
type setupTimes struct {
	generate  time.Duration // data generation and loading
	index     time.Duration
	sample    time.Duration
	histogram time.Duration
	colstore  time.Duration
}

func (s setupTimes) total() time.Duration {
	return s.generate + s.index + s.sample + s.histogram + s.colstore
}

// medianSetup returns each stage's median over the builds, and the
// median of the builds' totals.
func medianSetup(ts []setupTimes) (setupTimes, float64) {
	med := func(get func(setupTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(ts))
		for i, t := range ts {
			ds[i] = get(t)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	out := setupTimes{
		generate:  med(func(t setupTimes) time.Duration { return t.generate }),
		index:     med(func(t setupTimes) time.Duration { return t.index }),
		sample:    med(func(t setupTimes) time.Duration { return t.sample }),
		histogram: med(func(t setupTimes) time.Duration { return t.histogram }),
		colstore:  med(func(t setupTimes) time.Duration { return t.colstore }),
	}
	totals := make([]float64, len(ts))
	for i, t := range ts {
		totals[i] = t.total().Seconds()
	}
	sort.Float64s(totals)
	return out, totals[len(totals)/2]
}

func (s setupTimes) report(rep *report) {
	rep.set("setup.generate_s", s.generate.Seconds(), "s")
	rep.set("index.build_s", s.index.Seconds(), "s")
	rep.set("sample.build_s", s.sample.Seconds(), "s")
	rep.set("histogram.build_s", s.histogram.Seconds(), "s")
	rep.set("colstore.build_s", s.colstore.Seconds(), "s")
}
