package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"robustqo"
	"robustqo/internal/core"
	"robustqo/internal/cost"
	"robustqo/internal/engine"
	"robustqo/internal/histogram"
	"robustqo/internal/obs"
	"robustqo/internal/optimizer"
	"robustqo/internal/sample"
	"robustqo/internal/star"
	"robustqo/internal/stats"
	"robustqo/internal/storage"
	"robustqo/internal/tpch"
	"robustqo/internal/value"
)

// robust_sweep runs the paper's three experiments through the root
// Session API: every query is optimized cold, with no plan cache.
var (
	sweepModes = []struct {
		name string
		kind robustqo.EstimatorKind
		t    robustqo.ConfidenceThreshold
	}{
		{"t50", robustqo.RobustSampling, 0.50},
		{"t80", robustqo.RobustSampling, 0.80},
		{"t95", robustqo.RobustSampling, 0.95},
		{"hist", robustqo.HistogramAVI, 0.50}, // the threshold is ignored
	}
	// exp1Shifts move the receipt-date window past the ship-date window,
	// sweeping the joint selectivity from about 0.6% of lineitem to 0.
	exp1Shifts = []int64{92, 96, 100, 104, 108, 112, 116, 120}
	// exp2Xs slide the second part window from overlapping to disjoint.
	exp2Xs = []int64{10, 12, 14, 16, 18, 20, 22}
	// starFractions are the join fractions of the star databases.
	starFractions = []float64{0.001, 0.005, 0.02}
)

const (
	sweepDataSeed = 2005
	sweepLines    = 60000
	sweepParts    = 20000
	sweepFactRows = 100000
	sweepDimRows  = 1000
)

// sampleSets is how many synopsis sample sets each experiment database
// is queried under, as the paper averaged over sample sets. The
// histogram mode does not depend on them and runs once.
const sampleSets = 5

// sweepDB is one experiment database: its generator and one root-API
// database per sample set.
type sweepDB struct {
	name string
	gen  func() (*storage.Database, error)
	sets []*sweepSet

	mirrorOnce sync.Once
	mirror     *sweepMirror
	mirrorErr  error
}

// sweepSet is the experiment's data loaded through the root API, with
// statistics drawn from one sample-set seed and one session per mode.
type sweepSet struct {
	statsSeed uint64
	db        *robustqo.Database
	sessions  map[string]*robustqo.Session

	estOnce sync.Once
	ests    map[string]core.Estimator // the mirror's estimators
	estErr  error
}

// sweepMirror rebuilds one experiment database through the internal
// packages, exactly as the root API builds it, so the counters of the
// plan a root-API query executes can be read. The root API reports
// only their simulated time; each query checks that the mirror's
// simulated time equals it bit for bit.
type sweepMirror struct {
	db   *storage.Database
	ctx  *engine.Context
	hist core.Estimator
}

// sweepQuery is one pass entry: a query on one sample set of one
// database under one estimator mode.
type sweepQuery struct {
	db       *sweepDB
	set      *sweepSet
	q        *robustqo.Query
	mode     string
	t        robustqo.ConfidenceThreshold
	counters cost.Counters // from the mirror, set before the loop
	sim      float64
}

type sweepSystem struct {
	dbs []*sweepDB
	reg *obs.Registry // the mirror optimizer's cache counters
}

// buildRobustSweep builds the experiment databases from fixed data
// seeds, as the paper ran each experiment on one database; the run's
// seed draws the synopsis sample sets and the query order. Seeding the
// data too would move the queries' true selectivities, and with them
// sim_cost_*, by more than the sample sets do.
func buildRobustSweep(seed uint64, scale float64) (*bench, setupTimes, error) {
	var st setupTimes
	sys := &sweepSystem{reg: obs.NewRegistry()}
	lines := scaled(sweepLines, scale)
	exp1 := &sweepDB{name: "exp1", gen: func() (*storage.Database, error) {
		return tpch.Generate(tpch.Config{Lines: lines, Seed: sweepDataSeed})
	}}
	exp2 := &sweepDB{name: "exp2", gen: func() (*storage.Database, error) {
		return tpch.Generate(tpch.Config{Lines: lines, Parts: scaled(sweepParts, scale), PartCorrelation: 0.5, Seed: sweepDataSeed + 1})
	}}
	sys.dbs = []*sweepDB{exp1, exp2}
	var starDBs []*sweepDB
	for i, f := range starFractions {
		i, f := i, f
		d := &sweepDB{name: fmt.Sprintf("star%g", f), gen: func() (*storage.Database, error) {
			return star.Generate(star.Config{FactRows: scaled(sweepFactRows, scale), DimRows: sweepDimRows, Dims: 3,
				JoinFraction: f, Seed: sweepDataSeed + uint64(i)*7919})
		}}
		starDBs = append(starDBs, d)
		sys.dbs = append(sys.dbs, d)
	}
	probe := map[*sweepDB]*robustqo.Query{exp1: tpch.Experiment1Query(exp1Shifts[0]), exp2: tpch.Experiment2Query(exp2Xs[0])}
	for _, d := range starDBs {
		probe[d] = star.Query(3)
	}
	for di, d := range sys.dbs {
		seeds := make([]uint64, sampleSets)
		for k := range seeds {
			seeds[k] = seed*64 + uint64(di*sampleSets+k) + 1
		}
		if err := d.load(&st, probe[d], seeds); err != nil {
			return nil, st, fmt.Errorf("%s: %w", d.name, err)
		}
	}

	var pass []*query
	add := func(d *sweepDB, label string, q *robustqo.Query) {
		for _, m := range sweepModes {
			for k, set := range d.sets {
				if m.kind == robustqo.HistogramAVI && k > 0 {
					break
				}
				sq := &sweepQuery{db: d, set: set, q: q, mode: m.name, t: m.t}
				pass = append(pass, &query{key: fmt.Sprintf("%s set=%d %s", label, k, m.name), mode: m.name,
					point: label + " " + m.name, payload: sq})
			}
		}
	}
	for _, s := range exp1Shifts {
		add(exp1, fmt.Sprintf("exp1 shift=%d", s), tpch.Experiment1Query(s))
	}
	for _, x := range exp2Xs {
		add(exp2, fmt.Sprintf("exp2 x=%d", x), tpch.Experiment2Query(x))
	}
	for _, d := range starDBs {
		add(d, d.name, star.Query(3))
	}
	shuffle(newRNG(seed^0x5feeb), pass)
	b := &bench{clients: 1, dop: 1, pass: pass, sys: sys}
	return b, st, nil
}

// load generates the database once, and for each sample-set seed loads
// it through the root API, builds its statistics, and builds its
// indexes by optimizing probe once.
func (d *sweepDB) load(st *setupTimes, probe *robustqo.Query, seeds []uint64) error {
	t0 := time.Now()
	src, err := d.gen()
	if err != nil {
		return err
	}
	st.generate += time.Since(t0)
	for _, seed := range seeds {
		set := &sweepSet{statsSeed: seed, db: robustqo.NewDatabase(), sessions: map[string]*robustqo.Session{}}
		t0 := time.Now()
		for _, name := range src.Catalog.TableNames() {
			t, _ := src.Table(name)
			schema := *t.Schema()
			if err := set.db.CreateTable(&schema); err != nil {
				return err
			}
			if err := set.db.Insert(name, storageRows(t)...); err != nil {
				return err
			}
		}
		st.generate += time.Since(t0)

		// UpdateStatistics builds the synopses and the histograms in one
		// call, so sample.build_s carries both for this workload.
		t0 = time.Now()
		if err := set.db.UpdateStatistics(robustqo.StatsOptions{Seed: seed}); err != nil {
			return err
		}
		st.sample += time.Since(t0)

		for _, m := range sweepModes {
			s, err := set.db.SessionWith(m.kind, m.t, robustqo.Jeffreys)
			if err != nil {
				return err
			}
			set.sessions[m.name] = s
		}
		// The root API builds indexes on first use.
		t0 = time.Now()
		if _, err := set.sessions["t80"].Explain(probe); err != nil {
			return err
		}
		st.index += time.Since(t0)
		d.sets = append(d.sets, set)
	}
	return nil
}

func (s *sweepSystem) run(c *client, q *query) (outcome, error) {
	sq := q.payload.(*sweepQuery)
	sess := sq.set.sessions[sq.mode]
	tr := c.tr
	if tr != nil {
		sp := tr.begin(spSessExplain, 0)
		_, err := sess.Explain(sq.q)
		tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
	}
	var before runtime.MemStats
	if c.measureAllocs {
		runtime.ReadMemStats(&before)
	}
	sp := tr.begin(spSessQuery, 0)
	res, err := sess.QueryWithThreshold(sq.q, sq.t)
	tr.end(sp)
	if c.measureAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.allocs += after.Mallocs - before.Mallocs
		c.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	if err != nil {
		return outcome{}, err
	}
	if res.SimulatedSeconds != sq.sim {
		return outcome{}, fmt.Errorf("simulated time %v differs from the mirror's %v", res.SimulatedSeconds, sq.sim)
	}
	return outcome{rows: res.Rows, counters: sq.counters, sim: res.SimulatedSeconds}, nil
}

// reference answers q through the histogram session (cold, serial, row
// store) and, outside every timed region, reads the counters of the
// plan q's own mode executes from the mirror.
func (s *sweepSystem) reference(q *query) ([]value.Row, error) {
	sq := q.payload.(*sweepQuery)
	m, err := sq.db.getMirror()
	if err != nil {
		return nil, err
	}
	ests, err := sq.set.getEstimators(m)
	if err != nil {
		return nil, err
	}
	opt, err := optimizer.New(m.ctx, ests[sq.mode])
	if err != nil {
		return nil, err
	}
	opt.Metrics = s.reg
	plan, err := opt.Optimize(sq.q)
	if err != nil {
		return nil, err
	}
	_, counters, secs, err := engine.Run(m.ctx, plan.Root)
	if err != nil {
		return nil, err
	}
	sq.counters, sq.sim = counters, secs
	res, err := sq.set.sessions["hist"].QueryWithThreshold(sq.q, 0.5)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (d *sweepDB) getMirror() (*sweepMirror, error) {
	d.mirrorOnce.Do(func() { d.mirror, d.mirrorErr = d.buildMirror() })
	return d.mirror, d.mirrorErr
}

// buildMirror repeats what loading and Database.UpdateStatistics do,
// over a fresh copy of the generated data; the synopses, which differ
// per sample set, are built by getEstimators.
func (d *sweepDB) buildMirror() (*sweepMirror, error) {
	db, err := d.gen()
	if err != nil {
		return nil, err
	}
	ctx, err := engine.NewContext(db)
	if err != nil {
		return nil, err
	}
	hists, err := histogram.BuildAllSized(db, histogram.DefaultBuckets)
	if err != nil {
		return nil, err
	}
	hist, err := core.NewHistogramEstimator(hists, db.Catalog)
	if err != nil {
		return nil, err
	}
	return &sweepMirror{db: db, ctx: ctx, hist: hist}, nil
}

func (set *sweepSet) getEstimators(m *sweepMirror) (map[string]core.Estimator, error) {
	set.estOnce.Do(func() { set.ests, set.estErr = set.buildEstimators(m) })
	return set.ests, set.estErr
}

// buildEstimators repeats what Session.estimator builds for each mode.
func (set *sweepSet) buildEstimators(m *sweepMirror) (map[string]core.Estimator, error) {
	db := m.db
	syn, err := sample.BuildAll(db, sample.DefaultSize, stats.NewRNG(set.statsSeed))
	if err != nil {
		return nil, err
	}
	ests := map[string]core.Estimator{}
	for _, mode := range sweepModes {
		if mode.kind == robustqo.HistogramAVI {
			ests[mode.name] = m.hist
			continue
		}
		bayes, err := core.NewBayesEstimator(syn, mode.t)
		if err != nil {
			return nil, err
		}
		bayes.Prior = core.Jeffreys
		indep := &core.IndependentSamplesEstimator{Samples: syn, Catalog: db.Catalog, Prior: core.Jeffreys, Threshold: mode.t}
		magic := &core.MagicEstimator{
			Selectivity: histogram.MagicOther,
			Catalog:     db.Catalog,
			RowsFor: func(table string) (int, bool) {
				t, ok := db.Table(table)
				if !ok {
					return 0, false
				}
				return t.NumRows(), true
			},
		}
		ests[mode.name] = &core.Chain{Estimators: []core.Estimator{bayes, indep, magic}}
	}
	return ests, nil
}

var sweepCounters = []string{
	"robustqo_estimate_cache_hits_total",
	"robustqo_estimate_cache_misses_total",
	"robustqo_quantile_cache_hits_total",
	"robustqo_quantile_cache_misses_total",
}

func (s *sweepSystem) counterSnapshot() map[string]int64 {
	m := map[string]int64{}
	for _, n := range sweepCounters {
		m[n] = s.reg.Counter(n).Value()
	}
	return m
}

// layerMetrics reports what the root API lets the benchmark time: the
// optimize-only Session.Explain beside QueryWithThreshold. The cache
// ratios come from the mirror's one cold optimization per pass entry,
// which is what every root-API query repeats.
func (s *sweepSystem) layerMetrics(res *loopResult, tr *traceSet, _, _ map[string]int64, m map[string]metric) {
	c := s.counterSnapshot()
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	opt := durationsMicros(tr.durations(spSessExplain, nil))
	p50, _ := percentile(opt, 0.5)
	p95, _ := percentile(opt, 0.95)
	m["optimizer.optimize_us_p50"] = metric{p50, "us"}
	m["optimizer.optimize_us_p95"] = metric{p95, "us"}
	m["optimizer.calls_per_query"] = metric{1, "count"}
	m["optimizer.estimate_cache_hit_ratio"] = metric{ratio(c["robustqo_estimate_cache_hits_total"], c["robustqo_estimate_cache_misses_total"]), "fraction"}
	m["core.quantile_cache_hit_ratio"] = metric{ratio(c["robustqo_quantile_cache_hits_total"], c["robustqo_quantile_cache_misses_total"]), "fraction"}
	q := durationsMicros(tr.durations(spSessQuery, nil))
	q50, _ := percentile(q, 0.5)
	m["robustqo.query_ms_p50"] = metric{q50 / 1000, "ms"}
}

// storageRows copies every row of a generated table, in storage order.
func storageRows(t *storage.Table) []value.Row {
	rows := make([]value.Row, t.NumRows())
	for i := range rows {
		rows[i] = t.Row(i)
	}
	return rows
}
