// Package stats provides the probability machinery underlying robust
// cardinality estimation: the Beta distribution family (posterior of a
// binomial proportion), binomial sampling distributions, a deterministic
// random number generator, and summary statistics.
//
// Everything is implemented from scratch on top of math.Lgamma so that the
// module has no dependencies outside the standard library.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Beta is the Beta(Alpha, Beta) distribution on [0, 1].
//
// In the context of selectivity estimation, observing k successes in a
// sample of n tuples under a Beta(a, b) prior yields the posterior
// Beta(k+a, n-k+b); see core.Posterior.
type Beta struct {
	Alpha float64 // first shape parameter, > 0
	Beta  float64 // second shape parameter, > 0
}

// NewBeta returns a Beta distribution with the given shape parameters.
// It returns an error unless both parameters are positive and finite.
func NewBeta(alpha, beta float64) (Beta, error) {
	if !(alpha > 0) || math.IsInf(alpha, 0) || !(beta > 0) || math.IsInf(beta, 0) {
		return Beta{}, fmt.Errorf("stats: invalid Beta shape parameters (%g, %g)", alpha, beta)
	}
	return Beta{Alpha: alpha, Beta: beta}, nil
}

// Mean returns the expected value alpha / (alpha + beta).
func (d Beta) Mean() float64 { return d.Alpha / (d.Alpha + d.Beta) }

// Mode returns the mode of the distribution. For alpha, beta > 1 the mode is
// interior; for boundary cases it returns the appropriate endpoint (0.5 for
// the symmetric bimodal case alpha, beta < 1).
func (d Beta) Mode() float64 {
	a, b := d.Alpha, d.Beta
	switch {
	case a > 1 && b > 1:
		return (a - 1) / (a + b - 2)
	case a <= 1 && b > 1:
		return 0
	case a > 1 && b <= 1:
		return 1
	default:
		return 0.5
	}
}

// Variance returns the variance of the distribution.
func (d Beta) Variance() float64 {
	s := d.Alpha + d.Beta
	return d.Alpha * d.Beta / (s * s * (s + 1))
}

// StdDev returns the standard deviation of the distribution.
func (d Beta) StdDev() float64 { return math.Sqrt(d.Variance()) }

// LogPDF returns the natural log of the probability density at x.
// It returns -Inf outside (0, 1) when the density would be zero there.
func (d Beta) LogPDF(x float64) float64 {
	if x < 0 || x > 1 || math.IsNaN(x) {
		return math.Inf(-1)
	}
	if x == 0 {
		if d.Alpha < 1 {
			return math.Inf(1)
		}
		if d.Alpha == 1 {
			return -logBetaFunc(d.Alpha, d.Beta)
		}
		return math.Inf(-1)
	}
	if x == 1 {
		if d.Beta < 1 {
			return math.Inf(1)
		}
		if d.Beta == 1 {
			return -logBetaFunc(d.Alpha, d.Beta)
		}
		return math.Inf(-1)
	}
	return (d.Alpha-1)*math.Log(x) + (d.Beta-1)*math.Log1p(-x) - logBetaFunc(d.Alpha, d.Beta)
}

// PDF returns the probability density at x.
func (d Beta) PDF(x float64) float64 { return math.Exp(d.LogPDF(x)) }

// CDF returns P[X <= x], the regularized incomplete beta function I_x(a, b).
func (d Beta) CDF(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	return regIncBeta(d.Alpha, d.Beta, x)
}

// ErrBadProbability is returned by Quantile when p lies outside [0, 1].
var ErrBadProbability = errors.New("stats: probability outside [0, 1]")

// Quantile returns the p-th quantile, i.e. the value x with CDF(x) = p.
// This is the cdf-inversion at the heart of the confidence-threshold rule:
// the robust selectivity estimate is Quantile(T) of the posterior.
//
// It returns ErrBadProbability if p is outside [0, 1].
func (d Beta) Quantile(p float64) (float64, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN(), ErrBadProbability
	}
	switch p {
	case 0:
		return 0, nil
	case 1:
		return 1, nil
	}
	return d.quantile(p), nil
}

// quantile inverts the cdf using bisection refined by Newton steps. The
// bracket is maintained throughout so the Newton iteration can never
// escape; this keeps the inversion robust for extreme shape parameters
// (e.g. the Beta(0.5, 1000.5) posteriors arising from zero-match samples).
func (d Beta) quantile(p float64) float64 {
	lo, hi := 0.0, 1.0
	// Initial guess: the mean, clipped into the open interval.
	x := d.Mean()
	if x <= 0 || x >= 1 {
		x = 0.5
	}
	for iter := 0; iter < 200; iter++ {
		c := d.CDF(x)
		if c > p {
			hi = x
		} else {
			lo = x
		}
		if hi-lo < 1e-15 {
			break
		}
		// Newton step from the current point.
		pdf := d.PDF(x)
		var next float64
		if pdf > 0 && !math.IsInf(pdf, 0) {
			next = x - (c-p)/pdf
		} else {
			next = math.NaN()
		}
		if !(next > lo && next < hi) {
			next = 0.5 * (lo + hi) // fall back to bisection
		}
		if math.Abs(next-x) < 1e-16*math.Max(1, x) {
			x = next
			break
		}
		x = next
	}
	return x
}

// logBetaFunc returns ln B(a, b) = ln Γ(a) + ln Γ(b) - ln Γ(a+b).
func logBetaFunc(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// for 0 < x < 1 using the continued-fraction expansion (Numerical Recipes
// §6.4 form, evaluated with the modified Lentz algorithm). The symmetry
// I_x(a,b) = 1 - I_{1-x}(b,a) is applied so that the continued fraction is
// always evaluated in its rapidly-converging region.
func regIncBeta(a, b, x float64) float64 {
	if x > (a+1)/(a+b+2) {
		return 1 - regIncBeta(b, a, 1-x)
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)), computed in log space.
	logPre := a*math.Log(x) + b*math.Log1p(-x) - math.Log(a) - logBetaFunc(a, b)
	return math.Exp(logPre) * betaCF(a, b, x)
}

// betaCF evaluates the continued fraction for the incomplete beta function
// via the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-15
		tiny    = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// QuantileBisect inverts the cdf by pure bisection, without the Newton
// acceleration used by Quantile. It exists as the ablation baseline for
// the inversion strategy (see BenchmarkBetaQuantileBisectionOnly); both
// must agree to high precision.
func (d Beta) QuantileBisect(p float64) (float64, error) {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN(), ErrBadProbability
	}
	switch p {
	case 0:
		return 0, nil
	case 1:
		return 1, nil
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 100; iter++ {
		mid := 0.5 * (lo + hi)
		if d.CDF(mid) > p {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < 1e-14 {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}
