// Package stats implements the statistical machinery MBPTA needs:
// descriptive statistics, empirical distribution functions, and the two
// independence/identical-distribution tests the paper applies to execution
// times (§4.2): the Wald-Wolfowitz runs test for independence and the
// two-sample Kolmogorov-Smirnov test for identical distribution.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when a test or estimator is given fewer
// samples than it can meaningfully handle.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the sample median (average of the two central order
// statistics for even n). It panics on an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th empirical quantile of xs (0 <= q <= 1) using
// linear interpolation between order statistics (type-7, the common
// default). It panics on an empty slice or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile over an already ascending-sorted sample,
// without the copy and re-sort. Callers that hold a sorted sample (e.g.
// an ECDF, or POT after ranking the excesses) use this to avoid sorting
// the same data twice.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (which is copied).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns F(x) = P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// CCDFAt returns the complementary CDF 1 - F(x) = P(X > x), the exceedance
// function MBPTA upper-bounds (§2.1).
func (e *ECDF) CCDFAt(x float64) float64 { return 1 - e.At(x) }

// RunsTestResult holds the outcome of a Wald-Wolfowitz runs test.
type RunsTestResult struct {
	Runs     int     // observed number of runs
	N1, N2   int     // counts above/below the median
	Z        float64 // normal-approximation statistic
	AbsZ     float64 // |Z|; the paper's acceptance criterion is |Z| < 1.96
	Rejected bool    // true when independence is rejected at alpha=0.05
}

// WaldWolfowitz performs the runs test for independence used in MBPTA
// (§4.2): the sample is dichotomised around its median, the number of runs
// of consecutive same-side values is counted, and the standardised
// statistic Z is compared against the two-sided 5% critical value 1.96.
// Values equal to the median are discarded (the standard treatment).
func WaldWolfowitz(xs []float64) (RunsTestResult, error) {
	if len(xs) < 10 {
		return RunsTestResult{}, ErrTooFewSamples
	}
	med := Median(xs)
	var signs []bool
	for _, x := range xs {
		if x == med {
			continue
		}
		signs = append(signs, x > med)
	}
	if len(signs) < 10 {
		return RunsTestResult{}, ErrTooFewSamples
	}
	n1, n2, runs := 0, 0, 1
	for i, s := range signs {
		if s {
			n1++
		} else {
			n2++
		}
		if i > 0 && s != signs[i-1] {
			runs++
		}
	}
	if n1 == 0 || n2 == 0 {
		// Constant-side sample: a single run; treat as dependent.
		return RunsTestResult{Runs: 1, N1: n1, N2: n2, Z: math.Inf(-1),
			AbsZ: math.Inf(1), Rejected: true}, nil
	}
	fn1, fn2 := float64(n1), float64(n2)
	n := fn1 + fn2
	meanRuns := 2*fn1*fn2/n + 1
	varRuns := 2 * fn1 * fn2 * (2*fn1*fn2 - n) / (n * n * (n - 1))
	if varRuns <= 0 {
		return RunsTestResult{}, ErrTooFewSamples
	}
	z := (float64(runs) - meanRuns) / math.Sqrt(varRuns)
	r := RunsTestResult{Runs: runs, N1: n1, N2: n2, Z: z, AbsZ: math.Abs(z)}
	r.Rejected = r.AbsZ >= 1.96
	return r, nil
}

// KSResult holds the outcome of a Kolmogorov-Smirnov test.
type KSResult struct {
	D        float64 // KS statistic: max |F1 - F2|
	PValue   float64 // asymptotic p-value
	Rejected bool    // true when identical distribution is rejected at alpha=0.05
}

// KolmogorovSmirnov2 performs the two-sample KS test the paper uses for the
// identical-distribution hypothesis (§4.2): the acceptance criterion is
// p-value > 0.05.
func KolmogorovSmirnov2(a, b []float64) (KSResult, error) {
	if len(a) < 5 || len(b) < 5 {
		return KSResult{}, ErrTooFewSamples
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	na, nb := len(sa), len(sb)
	var d float64
	i, j := 0, 0
	for i < na && j < nb {
		if sa[i] <= sb[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/float64(na) - float64(j)/float64(nb))
		if diff > d {
			d = diff
		}
	}
	en := math.Sqrt(float64(na) * float64(nb) / float64(na+nb))
	p := ksPValue((en + 0.12 + 0.11/en) * d)
	return KSResult{D: d, PValue: p, Rejected: p <= 0.05}, nil
}

// KolmogorovSmirnov1 performs a one-sample KS test of xs against the CDF
// cdf. Used to validate distribution fits (e.g. the Gumbel fit in MBPTA).
func KolmogorovSmirnov1(xs []float64, cdf func(float64) float64) (KSResult, error) {
	if len(xs) < 5 {
		return KSResult{}, ErrTooFewSamples
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		f := cdf(x)
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	en := math.Sqrt(n)
	p := ksPValue((en + 0.12 + 0.11/en) * d)
	return KSResult{D: d, PValue: p, Rejected: p <= 0.05}, nil
}

// ksPValue evaluates the Kolmogorov distribution's survival function
// Q_KS(lambda) = 2 * sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2)
// (Numerical Recipes' probks).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	a2 := -2 * lambda * lambda
	sum, fac, prev := 0.0, 2.0, 0.0
	for j := 1; j <= 100; j++ {
		term := fac * math.Exp(a2*float64(j)*float64(j))
		sum += term
		if math.Abs(term) <= 1e-10*prev || math.Abs(term) <= 1e-12*sum {
			if sum < 0 {
				return 0
			}
			if sum > 1 {
				return 1
			}
			return sum
		}
		fac = -fac
		prev = math.Abs(term)
	}
	return 1 // failed to converge: be conservative (do not reject)
}

// ChiSquareUniform computes the chi-square statistic of bucket counts
// against a uniform expectation; exposed for the RNG-quality experiments.
func ChiSquareUniform(counts []int) (stat float64, dof int) {
	total := 0
	for _, c := range counts {
		total += c
	}
	if len(counts) < 2 || total == 0 {
		return 0, 0
	}
	exp := float64(total) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - exp
		x2 += d * d / exp
	}
	return x2, len(counts) - 1
}

// Summary condenses a sample into the descriptive statistics the
// experiment reports print.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
	P25, P75, P95    float64
}

// Summarize computes a Summary of xs; it panics on an empty slice.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    StdDev(xs),
		Min:    Min(xs),
		Median: Median(xs),
		Max:    Max(xs),
		P25:    Quantile(xs, 0.25),
		P75:    Quantile(xs, 0.75),
		P95:    Quantile(xs, 0.95),
	}
}
