// Package analytic implements the closed-form model of Section 5 of the
// paper: a single-table query with two candidate plans whose costs are
// linear in the number of qualifying tuples, optimized from an n-tuple
// sample interpreted at confidence threshold T.
//
// The model yields, without simulation, the exact probability that each
// plan is chosen for any true selectivity, and hence the exact mean and
// variance of execution time — everything behind Figures 5–8.
package analytic

import (
	"fmt"
	"math"

	"robustqo/internal/core"
	"robustqo/internal/stats"
)

// LinearCost is an execution cost linear in selectivity:
// cost(s) = Fixed + Slope·s. (In the paper's notation cost = f + v·x with
// x = s·N; Slope folds in the table size: Slope = v·N.)
type LinearCost struct {
	Fixed float64
	Slope float64
}

// At returns the cost at selectivity s.
func (l LinearCost) At(s float64) float64 { return l.Fixed + l.Slope*s }

// Inverse returns the selectivity at which the cost equals c.
func (l LinearCost) Inverse(c float64) float64 {
	if l.Slope == 0 {
		return math.NaN()
	}
	return (c - l.Fixed) / l.Slope
}

// TwoPlanModel is the Section 5.1 setting: a stable plan P1 (sequential
// scan: high fixed cost, tiny slope) and a risky plan P2 (index
// intersection: tiny fixed cost, steep slope).
type TwoPlanModel struct {
	N      int        // table rows
	Stable LinearCost // the paper's P1
	Risky  LinearCost // the paper's P2
}

// Plan identifies which of the two plans was chosen.
type Plan int

// The two plans of the model.
const (
	StablePlan Plan = 1 // P1
	RiskyPlan  Plan = 2 // P2
)

// Paper51Model returns the exact parameterization of Section 5.1:
// N = 6,000,000, f1 = 35, v1 = 3.5e-6, f2 = 5, v2 = 3.5e-3 (slopes are
// v·N). Its crossover is pc ≈ 0.14%.
func Paper51Model() TwoPlanModel {
	const n = 6_000_000
	return TwoPlanModel{
		N:      n,
		Stable: LinearCost{Fixed: 35, Slope: 3.5e-6 * n},
		Risky:  LinearCost{Fixed: 5, Slope: 3.5e-3 * n},
	}
}

// HighCrossoverModel returns the perturbed cost model of Section 5.2.3,
// with the crossover pushed to about 5.2% selectivity (Figure 8): the
// risky plan's per-tuple cost is much closer to the stable plan's.
func HighCrossoverModel() TwoPlanModel {
	const n = 6_000_000
	// pc = (f1 - f2) / ((v2 - v1) N) = 30 / (9.6154e-5 * 6e6) ≈ 5.2%.
	return TwoPlanModel{
		N:      n,
		Stable: LinearCost{Fixed: 35, Slope: 3.5e-6 * n},
		Risky:  LinearCost{Fixed: 5, Slope: 9.96154e-5 * n},
	}
}

// Figure1Plans returns the two hypothetical plans of Figures 1–3,
// reverse-engineered from the quantile values the paper reports (plan-1
// cost 30.2/33.5 and plan-2 cost 31.5/31.9 at T = 50%/80% under the
// Beta(50.5, 150.5) posterior of a 200-tuple sample with 50 matches);
// their crossover falls at 26% selectivity and plan preference flips at
// T ≈ 65%, both as stated in Section 3.1.
func Figure1Plans() (plan1, plan2 LinearCost) {
	return LinearCost{Fixed: -1.02, Slope: 124.7}, LinearCost{Fixed: 27.61, Slope: 15.6}
}

// Crossover returns the selectivity pc at which the two plans cost the
// same; below it the risky plan is cheaper.
func (m TwoPlanModel) Crossover() float64 {
	return (m.Stable.Fixed - m.Risky.Fixed) / (m.Risky.Slope - m.Stable.Slope)
}

// CostOf returns the execution cost of the given plan at true
// selectivity p.
func (m TwoPlanModel) CostOf(plan Plan, p float64) float64 {
	if plan == RiskyPlan {
		return m.Risky.At(p)
	}
	return m.Stable.At(p)
}

// DecisionCutoff computes the largest sample match count k such that the
// robust estimate cdf⁻¹(T) of Beta(k+a, n-k+b) still falls at or below
// the crossover pc — i.e. the optimizer picks the risky plan iff k <=
// cutoff. It returns -1 when even k = 0 exceeds pc (the optimizer never
// takes the risk, as with T = 95% in Section 5.2.1).
func DecisionCutoff(n int, prior core.Prior, t core.ConfidenceThreshold, pc float64) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("analytic: sample size %d must be positive", n)
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	// RobustSelectivity is increasing in k; binary search the boundary.
	sel := func(k int) (float64, error) { return core.RobustSelectivity(k, n, prior, t) }
	s0, err := sel(0)
	if err != nil {
		return 0, err
	}
	if s0 > pc {
		return -1, nil
	}
	lo, hi := 0, n // invariant: sel(lo) <= pc, sel(hi) > pc or hi = n
	sn, err := sel(n)
	if err != nil {
		return 0, err
	}
	if sn <= pc {
		return n, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		s, err := sel(mid)
		if err != nil {
			return 0, err
		}
		if s <= pc {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Outcome summarizes the optimizer's behavior at one true selectivity.
type Outcome struct {
	TrueSelectivity float64
	RiskyProb       float64 // probability the risky plan is chosen
	Mean            float64 // expected execution cost
	Variance        float64 // variance of execution cost over the sample draw
}

// StdDev returns the standard deviation of the execution cost.
func (o Outcome) StdDev() float64 { return math.Sqrt(o.Variance) }

// Evaluate computes the exact plan-choice distribution and execution cost
// moments for a query of true selectivity p, planned from an n-tuple
// sample at threshold t: the match count is Binomial(n, p), the plan is
// risky iff the match count is at most the decision cutoff, and each
// plan's cost at p is deterministic.
func (m TwoPlanModel) Evaluate(p float64, n int, prior core.Prior, t core.ConfidenceThreshold) (Outcome, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return Outcome{}, fmt.Errorf("analytic: selectivity %g outside [0, 1]", p)
	}
	cutoff, err := DecisionCutoff(n, prior, t, m.Crossover())
	if err != nil {
		return Outcome{}, err
	}
	bin, err := stats.NewBinomial(n, p)
	if err != nil {
		return Outcome{}, err
	}
	riskyProb := bin.CDF(cutoff) // CDF(-1) = 0
	cRisky := m.CostOf(RiskyPlan, p)
	cStable := m.CostOf(StablePlan, p)
	mean := riskyProb*cRisky + (1-riskyProb)*cStable
	second := riskyProb*cRisky*cRisky + (1-riskyProb)*cStable*cStable
	variance := second - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Outcome{TrueSelectivity: p, RiskyProb: riskyProb, Mean: mean, Variance: variance}, nil
}

// WorkloadSummary aggregates outcomes across a set of equally likely
// query selectivities (the Figure 6 construction): the mean execution
// time over the workload and its standard deviation, accounting for both
// the spread across selectivities and the randomness of the sample.
func WorkloadSummary(outcomes []Outcome) (mean, stdDev float64) {
	if len(outcomes) == 0 {
		return 0, 0
	}
	var m1, m2 float64
	for _, o := range outcomes {
		m1 += o.Mean
		m2 += o.Variance + o.Mean*o.Mean
	}
	m1 /= float64(len(outcomes))
	m2 /= float64(len(outcomes))
	v := m2 - m1*m1
	if v < 0 {
		v = 0
	}
	return m1, math.Sqrt(v)
}

// CostDist is the execution-cost distribution of a plan under an
// uncertain selectivity (Figures 2 and 3): the posterior selectivity
// distribution pushed through the plan's monotone linear cost function.
type CostDist struct {
	Posterior stats.Beta
	Cost      LinearCost
}

// CDF returns P[cost <= c].
func (d CostDist) CDF(c float64) float64 {
	if d.Cost.Slope == 0 {
		if c >= d.Cost.Fixed {
			return 1
		}
		return 0
	}
	return d.Posterior.CDF(d.Cost.Inverse(c))
}

// PDF returns the density of the execution cost at c, via the
// change-of-variable f*(c) = f(g⁻¹(c)) / g'(s).
func (d CostDist) PDF(c float64) float64 {
	if d.Cost.Slope == 0 {
		return 0
	}
	return d.Posterior.PDF(d.Cost.Inverse(c)) / math.Abs(d.Cost.Slope)
}

// Quantile returns cdf⁻¹(t): the cost estimate the optimizer assigns to
// this plan at confidence threshold t. Because the cost function is
// monotone, this equals the cost function applied to the selectivity
// quantile — the shortcut of Section 3.1.1.
func (d CostDist) Quantile(t core.ConfidenceThreshold) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	s, err := d.Posterior.Quantile(float64(t))
	if err != nil {
		return 0, err
	}
	return d.Cost.At(s), nil
}
