package analytic

import (
	"math"
	"testing"

	"robustqo/internal/core"
	"robustqo/internal/stats"
)

func TestPaper51Crossover(t *testing.T) {
	m := Paper51Model()
	pc := m.Crossover()
	// The paper reports pc ≈ 0.14%.
	if math.Abs(pc-0.0014) > 0.0002 {
		t.Errorf("crossover = %g, want ~0.0014", pc)
	}
	// Costs match the stated linear forms at both ends.
	if got := m.CostOf(StablePlan, 0); got != 35 {
		t.Errorf("stable fixed = %g", got)
	}
	if got := m.CostOf(RiskyPlan, 0); got != 5 {
		t.Errorf("risky fixed = %g", got)
	}
	if got := m.CostOf(RiskyPlan, pc) - m.CostOf(StablePlan, pc); math.Abs(got) > 1e-9 {
		t.Errorf("costs differ at crossover by %g", got)
	}
}

func TestHighCrossoverModel(t *testing.T) {
	m := HighCrossoverModel()
	if pc := m.Crossover(); math.Abs(pc-0.052) > 0.003 {
		t.Errorf("high crossover = %g, want ~0.052", pc)
	}
}

func TestDecisionCutoffMonotoneInThreshold(t *testing.T) {
	m := Paper51Model()
	prev := 1 << 30
	for _, threshold := range []core.ConfidenceThreshold{0.05, 0.2, 0.5, 0.8, 0.95} {
		k, err := DecisionCutoff(1000, core.Jeffreys, threshold, m.Crossover())
		if err != nil {
			t.Fatal(err)
		}
		if k > prev {
			t.Errorf("cutoff increased with threshold: %d after %d", k, prev)
		}
		prev = k
	}
}

func TestT95NeverPicksRisky(t *testing.T) {
	// Section 5.2.1: at T = 95% with n = 1000, even zero matches leave a
	// >5% chance that selectivity exceeds pc, so the risky plan is never
	// chosen.
	m := Paper51Model()
	k, err := DecisionCutoff(1000, core.Jeffreys, 0.95, m.Crossover())
	if err != nil {
		t.Fatal(err)
	}
	if k != -1 {
		t.Errorf("cutoff = %d, want -1 (never risky)", k)
	}
	out, err := m.Evaluate(0.0005, 1000, core.Jeffreys, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if out.RiskyProb != 0 {
		t.Errorf("risky prob = %g", out.RiskyProb)
	}
	if out.Variance != 0 {
		t.Errorf("variance = %g (plan is deterministic)", out.Variance)
	}
}

func TestFiftyTupleSampleAlwaysScans(t *testing.T) {
	// Section 6.2.4's self-adjusting behavior: at n = 50, T = 50%, even
	// k = 0 yields an estimate above the crossover.
	m := Paper51Model()
	k, err := DecisionCutoff(50, core.Jeffreys, 0.5, m.Crossover())
	if err != nil {
		t.Fatal(err)
	}
	if k != -1 {
		t.Errorf("cutoff = %d, want -1", k)
	}
}

func TestDecisionCutoffEdges(t *testing.T) {
	m := Paper51Model()
	if _, err := DecisionCutoff(0, core.Jeffreys, 0.5, m.Crossover()); err == nil {
		t.Error("n = 0 accepted")
	}
	if _, err := DecisionCutoff(100, core.Jeffreys, 0, m.Crossover()); err == nil {
		t.Error("T = 0 accepted")
	}
	// A crossover of ~1 means the risky plan is always chosen.
	k, err := DecisionCutoff(100, core.Jeffreys, 0.5, 0.9999)
	if err != nil {
		t.Fatal(err)
	}
	if k != 100 {
		t.Errorf("cutoff = %d, want n", k)
	}
}

func TestEvaluateLowThresholdAggressive(t *testing.T) {
	// At very low selectivity, low thresholds should almost surely pick
	// the risky plan; at high selectivity, the stable plan.
	m := Paper51Model()
	lo, err := m.Evaluate(0.0001, 1000, core.Jeffreys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if lo.RiskyProb < 0.95 {
		t.Errorf("low-selectivity risky prob = %g", lo.RiskyProb)
	}
	hi, err := m.Evaluate(0.01, 1000, core.Jeffreys, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if hi.RiskyProb > 0.05 {
		t.Errorf("high-selectivity risky prob = %g", hi.RiskyProb)
	}
	if _, err := m.Evaluate(-0.1, 100, core.Jeffreys, 0.5); err == nil {
		t.Error("negative selectivity accepted")
	}
}

func TestEvaluateMeanBetweenPlanCosts(t *testing.T) {
	m := Paper51Model()
	for _, p := range []float64{0, 0.0005, 0.0014, 0.003, 0.01} {
		out, err := m.Evaluate(p, 500, core.Jeffreys, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		lo := math.Min(m.CostOf(RiskyPlan, p), m.CostOf(StablePlan, p))
		hi := math.Max(m.CostOf(RiskyPlan, p), m.CostOf(StablePlan, p))
		if out.Mean < lo-1e-9 || out.Mean > hi+1e-9 {
			t.Errorf("p=%g: mean %g outside [%g, %g]", p, out.Mean, lo, hi)
		}
		if out.Variance < 0 {
			t.Errorf("p=%g: negative variance", p)
		}
	}
}

func TestLargerSamplesReduceMistakes(t *testing.T) {
	// Figure 7's message: at T = 50%, larger samples lower the expected
	// time for selectivities near the crossover. (Test below the
	// crossover, where the risky plan is correct: above it, tiny samples
	// can win by accident through the Experiment-4 self-adjustment that
	// always picks the scan.)
	m := Paper51Model()
	p := m.Crossover() / 2 // risky plan is right; small samples play safe
	prevMean := math.Inf(1)
	for _, n := range []int{100, 500, 2500} {
		out, err := m.Evaluate(p, n, core.Jeffreys, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if out.Mean > prevMean+1e-9 {
			t.Errorf("n=%d: mean %g did not improve on %g", n, out.Mean, prevMean)
		}
		prevMean = out.Mean
	}
}

func TestWorkloadSummary(t *testing.T) {
	if m, s := WorkloadSummary(nil); m != 0 || s != 0 {
		t.Error("empty summary nonzero")
	}
	// Two deterministic outcomes: variance is purely across queries.
	outs := []Outcome{
		{Mean: 10, Variance: 0},
		{Mean: 20, Variance: 0},
	}
	mean, sd := WorkloadSummary(outs)
	if mean != 15 || math.Abs(sd-5) > 1e-12 {
		t.Errorf("summary = %g, %g", mean, sd)
	}
	// Per-query variance contributes too.
	outs2 := []Outcome{{Mean: 15, Variance: 25}, {Mean: 15, Variance: 25}}
	_, sd2 := WorkloadSummary(outs2)
	if math.Abs(sd2-5) > 1e-12 {
		t.Errorf("pooled sd = %g", sd2)
	}
}

func TestHigherThresholdLowersWorkloadVariance(t *testing.T) {
	// Figure 6's monotone trade-off: the workload std-dev decreases as
	// the threshold rises.
	m := Paper51Model()
	var prev float64 = math.Inf(1)
	for _, threshold := range []core.ConfidenceThreshold{0.05, 0.2, 0.5, 0.8, 0.95} {
		var outs []Outcome
		for i := 0; i <= 20; i++ {
			p := float64(i) * 0.0005 // 0 to 1%
			o, err := m.Evaluate(p, 1000, core.Jeffreys, threshold)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, o)
		}
		_, sd := WorkloadSummary(outs)
		if sd > prev+1e-9 {
			t.Errorf("T=%v: std dev %g rose above %g", threshold, sd, prev)
		}
		prev = sd
	}
}

func TestCostDistMatchesPaperFigure3(t *testing.T) {
	// Figures 2/3: sample of 200 with 50 matches, Jeffreys prior →
	// posterior Beta(50.5, 150.5). The paper reports plan-1 estimates of
	// 30.2 (T=50) and 33.5 (T=80), plan-2 estimates of 31.5 and 31.9.
	post, err := core.Jeffreys.Posterior(50, 200)
	if err != nil {
		t.Fatal(err)
	}
	plan1, plan2 := Figure1Plans()
	d1 := CostDist{Posterior: post, Cost: plan1}
	d2 := CostDist{Posterior: post, Cost: plan2}
	cases := []struct {
		d    CostDist
		t    core.ConfidenceThreshold
		want float64
	}{
		{d1, 0.5, 30.2},
		{d1, 0.8, 33.5},
		{d2, 0.5, 31.5},
		{d2, 0.8, 31.9},
	}
	for _, c := range cases {
		got, err := c.d.Quantile(c.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.15 {
			t.Errorf("quantile at %v = %g, want ~%g", c.t, got, c.want)
		}
	}
	// Plan preference flips around T = 65% (Section 3.1).
	flip := func(threshold core.ConfidenceThreshold) bool {
		c1, _ := d1.Quantile(threshold)
		c2, _ := d2.Quantile(threshold)
		return c1 > c2
	}
	if flip(0.60) {
		t.Error("plan 1 should still win at T=60%")
	}
	if !flip(0.70) {
		t.Error("plan 2 should win at T=70%")
	}
}

func TestCostDistCalculus(t *testing.T) {
	post, _ := stats.NewBeta(50.5, 150.5)
	d := CostDist{Posterior: post, Cost: LinearCost{Fixed: 10, Slope: 100}}
	// CDF and Quantile invert each other.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		c, err := d.Quantile(core.ConfidenceThreshold(p))
		if err != nil {
			t.Fatal(err)
		}
		if back := d.CDF(c); math.Abs(back-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
	// PDF integrates to ~1 over the support.
	lo := d.Cost.At(0)
	hi := d.Cost.At(1)
	const steps = 20000
	h := (hi - lo) / steps
	sum := 0.0
	for i := 1; i < steps; i++ {
		sum += d.PDF(lo + float64(i)*h)
	}
	if got := sum * h; math.Abs(got-1) > 1e-3 {
		t.Errorf("pdf integrates to %g", got)
	}
	// Degenerate flat cost.
	flat := CostDist{Posterior: post, Cost: LinearCost{Fixed: 7}}
	if flat.CDF(6.9) != 0 || flat.CDF(7.1) != 1 || flat.PDF(7) != 0 {
		t.Error("flat-cost distribution wrong")
	}
	if _, err := d.Quantile(0); err == nil {
		t.Error("quantile at 0 accepted")
	}
	if !math.IsNaN((LinearCost{Fixed: 1}).Inverse(5)) {
		t.Error("Inverse of flat cost should be NaN")
	}
}
