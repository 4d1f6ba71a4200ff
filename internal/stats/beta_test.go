package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestNewBetaValidation(t *testing.T) {
	cases := []struct {
		a, b float64
		ok   bool
	}{
		{1, 1, true},
		{0.5, 0.5, true},
		{10.5, 990.5, true},
		{0, 1, false},
		{1, 0, false},
		{-1, 2, false},
		{math.NaN(), 1, false},
		{1, math.Inf(1), false},
	}
	for _, c := range cases {
		_, err := NewBeta(c.a, c.b)
		if (err == nil) != c.ok {
			t.Errorf("NewBeta(%g, %g): err=%v, want ok=%v", c.a, c.b, err, c.ok)
		}
	}
}

func TestBetaUniformCDF(t *testing.T) {
	// Beta(1,1) is the uniform distribution: CDF(x) = x.
	d := Beta{Alpha: 1, Beta: 1}
	for _, x := range []float64{0, 0.1, 0.25, 0.5, 0.73, 0.999, 1} {
		if got := d.CDF(x); !almostEqual(got, x, 1e-12) {
			t.Errorf("Beta(1,1).CDF(%g) = %g, want %g", x, got, x)
		}
	}
}

func TestBetaClosedFormCDFs(t *testing.T) {
	// Beta(2,2): CDF(x) = 3x^2 - 2x^3.
	d22 := Beta{Alpha: 2, Beta: 2}
	for _, x := range []float64{0.1, 0.3, 0.5, 0.8, 0.95} {
		want := 3*x*x - 2*x*x*x
		if got := d22.CDF(x); !almostEqual(got, want, 1e-12) {
			t.Errorf("Beta(2,2).CDF(%g) = %g, want %g", x, got, want)
		}
	}
	// Jeffreys prior Beta(1/2,1/2): CDF(x) = (2/pi) asin(sqrt(x)).
	dj := Beta{Alpha: 0.5, Beta: 0.5}
	for _, x := range []float64{0.05, 0.2, 0.5, 0.7, 0.99} {
		want := 2 / math.Pi * math.Asin(math.Sqrt(x))
		if got := dj.CDF(x); !almostEqual(got, want, 1e-10) {
			t.Errorf("Beta(.5,.5).CDF(%g) = %g, want %g", x, got, want)
		}
	}
	// Beta(a,1): CDF(x) = x^a.
	da1 := Beta{Alpha: 3.5, Beta: 1}
	for _, x := range []float64{0.2, 0.6, 0.9} {
		want := math.Pow(x, 3.5)
		if got := da1.CDF(x); !almostEqual(got, want, 1e-12) {
			t.Errorf("Beta(3.5,1).CDF(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	d := Beta{Alpha: 10.5, Beta: 90.5}
	if got, want := d.Mean(), 10.5/101.0; !almostEqual(got, want, 1e-15) {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	wantVar := 10.5 * 90.5 / (101.0 * 101.0 * 102.0)
	if got := d.Variance(); !almostEqual(got, wantVar, 1e-15) {
		t.Errorf("Variance = %g, want %g", got, wantVar)
	}
	if got := d.StdDev(); !almostEqual(got, math.Sqrt(wantVar), 1e-15) {
		t.Errorf("StdDev = %g, want %g", got, math.Sqrt(wantVar))
	}
}

func TestBetaMode(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{2, 2, 0.5},
		{3, 1.5, 2.0 / 2.5},
		{0.5, 2, 0},
		{2, 0.5, 1},
		{0.5, 0.5, 0.5},
	}
	for _, c := range cases {
		d := Beta{Alpha: c.a, Beta: c.b}
		if got := d.Mode(); !almostEqual(got, c.want, 1e-15) {
			t.Errorf("Beta(%g,%g).Mode = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestBetaPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integration of the pdf should match the cdf.
	d := Beta{Alpha: 10.5, Beta: 90.5}
	const steps = 200000
	h := 1.0 / steps
	sum := 0.0
	for i := 1; i < steps; i++ {
		x := float64(i) * h
		sum += d.PDF(x)
		if x == 0.25 || i == steps/4 {
			got := d.CDF(x)
			approx := sum * h
			if !almostEqual(got, approx, 1e-4) {
				t.Errorf("CDF(%g) = %g, integral %g", x, got, approx)
			}
		}
	}
	if total := sum * h; !almostEqual(total, 1, 1e-4) {
		t.Errorf("pdf integrates to %g, want 1", total)
	}
}

func TestBetaQuantileInvertsCDF(t *testing.T) {
	dists := []Beta{
		{1, 1}, {0.5, 0.5}, {2, 5}, {10.5, 90.5}, {50.5, 150.5},
		{0.5, 1000.5}, {1000.5, 0.5}, {5.5, 5.5},
	}
	ps := []float64{0.001, 0.05, 0.2, 0.5, 0.8, 0.95, 0.999}
	for _, d := range dists {
		for _, p := range ps {
			x, err := d.Quantile(p)
			if err != nil {
				t.Fatalf("Quantile error: %v", err)
			}
			if back := d.CDF(x); !almostEqual(back, p, 1e-9) {
				t.Errorf("Beta(%g,%g): CDF(Quantile(%g)) = %g", d.Alpha, d.Beta, p, back)
			}
		}
	}
}

func TestBetaQuantileEdges(t *testing.T) {
	d := Beta{Alpha: 3, Beta: 7}
	if x, err := d.Quantile(0); err != nil || x != 0 {
		t.Errorf("Quantile(0) = %g, %v", x, err)
	}
	if x, err := d.Quantile(1); err != nil || x != 1 {
		t.Errorf("Quantile(1) = %g, %v", x, err)
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := d.Quantile(p); err == nil {
			t.Errorf("Quantile(%g): expected error", p)
		}
	}
}

func TestBetaPaperWorkedExample(t *testing.T) {
	// Section 3.4: 10 of 100 sample tuples satisfy the predicate under the
	// Jeffreys prior, so the posterior is Beta(10.5, 90.5). The paper reports
	// selectivity estimates of 7.8%, 10.1%, and 12.8% at confidence
	// thresholds 20%, 50%, and 80%.
	d := Beta{Alpha: 10.5, Beta: 90.5}
	cases := []struct{ p, want float64 }{
		{0.20, 0.078},
		{0.50, 0.101},
		{0.80, 0.128},
	}
	for _, c := range cases {
		got, err := d.Quantile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.0015 {
			t.Errorf("Quantile(%g) = %.4f, want about %.3f", c.p, got, c.want)
		}
	}
}

func TestBetaCDFMonotoneProperty(t *testing.T) {
	// Property: the CDF is non-decreasing for arbitrary valid shapes.
	f := func(aRaw, bRaw, x1Raw, x2Raw uint32) bool {
		a := 0.01 + float64(aRaw%100000)/100
		b := 0.01 + float64(bRaw%100000)/100
		x1 := float64(x1Raw) / float64(math.MaxUint32)
		x2 := float64(x2Raw) / float64(math.MaxUint32)
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		d := Beta{Alpha: a, Beta: b}
		return d.CDF(x1) <= d.CDF(x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBetaQuantileRoundTripProperty(t *testing.T) {
	// Property: CDF(Quantile(p)) == p for posterior-shaped parameters.
	f := func(kRaw, nRaw uint16, pRaw uint32) bool {
		n := 1 + int(nRaw%5000)
		k := int(kRaw) % (n + 1)
		p := (1 + float64(pRaw%999998)) / 1e6 // in (0, 1)
		d := Beta{Alpha: float64(k) + 0.5, Beta: float64(n-k) + 0.5}
		x, err := d.Quantile(p)
		if err != nil {
			return false
		}
		return math.Abs(d.CDF(x)-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBetaQuantileMonotoneInP(t *testing.T) {
	f := func(p1Raw, p2Raw uint32) bool {
		p1 := float64(p1Raw) / float64(math.MaxUint32)
		p2 := float64(p2Raw) / float64(math.MaxUint32)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		d := Beta{Alpha: 10.5, Beta: 90.5}
		x1, err1 := d.Quantile(p1)
		x2, err2 := d.Quantile(p2)
		return err1 == nil && err2 == nil && x1 <= x2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBetaPDFBoundaryBehaviour(t *testing.T) {
	// alpha < 1: density diverges at 0; alpha > 1: density 0 at 0.
	if got := (Beta{Alpha: 0.5, Beta: 2}).PDF(0); !math.IsInf(got, 1) {
		t.Errorf("Beta(.5,2).PDF(0) = %g, want +Inf", got)
	}
	if got := (Beta{Alpha: 2, Beta: 2}).PDF(0); got != 0 {
		t.Errorf("Beta(2,2).PDF(0) = %g, want 0", got)
	}
	if got := (Beta{Alpha: 1, Beta: 1}).PDF(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Beta(1,1).PDF(0) = %g, want 1", got)
	}
	if got := (Beta{Alpha: 2, Beta: 0.5}).PDF(1); !math.IsInf(got, 1) {
		t.Errorf("Beta(2,.5).PDF(1) = %g, want +Inf", got)
	}
	if got := (Beta{Alpha: 1, Beta: 1}).PDF(-0.5); got != 0 {
		t.Errorf("PDF outside support = %g, want 0", got)
	}
}

func TestBetaCDFOutOfRange(t *testing.T) {
	d := Beta{Alpha: 2, Beta: 3}
	if got := d.CDF(-1); got != 0 {
		t.Errorf("CDF(-1) = %g", got)
	}
	if got := d.CDF(2); got != 1 {
		t.Errorf("CDF(2) = %g", got)
	}
	if got := d.CDF(math.NaN()); !math.IsNaN(got) {
		t.Errorf("CDF(NaN) = %g, want NaN", got)
	}
}

func TestQuantileBisectAgreesWithNewton(t *testing.T) {
	dists := []Beta{{0.5, 0.5}, {10.5, 90.5}, {0.5, 1000.5}, {50.5, 150.5}}
	ps := []float64{0.01, 0.2, 0.5, 0.8, 0.99}
	for _, d := range dists {
		for _, p := range ps {
			a, err1 := d.Quantile(p)
			b, err2 := d.QuantileBisect(p)
			if err1 != nil || err2 != nil {
				t.Fatalf("errors: %v, %v", err1, err2)
			}
			if math.Abs(a-b) > 1e-9 {
				t.Errorf("Beta(%g,%g) q(%g): newton %g vs bisect %g", d.Alpha, d.Beta, p, a, b)
			}
		}
	}
	if x, err := (Beta{Alpha: 2, Beta: 2}).QuantileBisect(0); err != nil || x != 0 {
		t.Errorf("bisect(0) = %g, %v", x, err)
	}
	if x, err := (Beta{Alpha: 2, Beta: 2}).QuantileBisect(1); err != nil || x != 1 {
		t.Errorf("bisect(1) = %g, %v", x, err)
	}
	if _, err := (Beta{Alpha: 2, Beta: 2}).QuantileBisect(-1); err == nil {
		t.Error("bisect(-1) accepted")
	}
}
