package mbpta

import (
	"errors"
	"math"
	"testing"

	"efl/internal/rng"
	"efl/internal/stats"
)

// gumbelSample draws n samples from Gumbel(mu, beta) by inversion.
func gumbelSample(src rng.Stream, g Gumbel, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := src.Float64()
		for u == 0 {
			u = src.Float64()
		}
		out[i] = g.Quantile(u)
	}
	return out
}

func TestGumbelCDFQuantileRoundTrip(t *testing.T) {
	g := Gumbel{Mu: 100, Beta: 7}
	for _, p := range []float64{0.001, 0.1, 0.5, 0.9, 0.999} {
		x := g.Quantile(p)
		if got := g.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestGumbelCCDFDeepTail(t *testing.T) {
	g := Gumbel{Mu: 1000, Beta: 10}
	for _, p := range []float64{1e-15, 1e-17, 1e-19} {
		x := g.QuantileExceedance(p)
		got := g.CCDF(x)
		if math.Abs(got-p)/p > 1e-6 {
			t.Errorf("CCDF(QuantileExceedance(%g)) = %g", p, got)
		}
		// The deep-tail quantile is approximately mu + beta*ln(1/p).
		approx := g.Mu + g.Beta*math.Log(1/p)
		if math.Abs(x-approx) > 1e-6*approx {
			t.Errorf("deep tail quantile %v far from asymptote %v", x, approx)
		}
	}
}

func TestGumbelMeanVar(t *testing.T) {
	g := Gumbel{Mu: 50, Beta: 4}
	src := rng.New(1)
	xs := gumbelSample(src, g, 200000)
	if m := stats.Mean(xs); math.Abs(m-g.Mean()) > 0.1 {
		t.Errorf("sample mean %v vs analytic %v", m, g.Mean())
	}
	if v := stats.Variance(xs); math.Abs(v-g.Var())/g.Var() > 0.05 {
		t.Errorf("sample var %v vs analytic %v", v, g.Var())
	}
}

func TestFitGumbelMomentsRecovers(t *testing.T) {
	src := rng.New(2)
	truth := Gumbel{Mu: 1000, Beta: 25}
	xs := gumbelSample(src, truth, 20000)
	fit, err := FitGumbelMoments(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-truth.Mu) > 2 || math.Abs(fit.Beta-truth.Beta) > 1.5 {
		t.Fatalf("moments fit %v far from truth %v", fit, truth)
	}
}

func TestFitGumbelMLRecovers(t *testing.T) {
	src := rng.New(3)
	truth := Gumbel{Mu: 5000, Beta: 120}
	xs := gumbelSample(src, truth, 20000)
	fit, err := FitGumbelML(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-truth.Mu)/truth.Mu > 0.01 || math.Abs(fit.Beta-truth.Beta)/truth.Beta > 0.05 {
		t.Fatalf("ML fit %v far from truth %v", fit, truth)
	}
	// The ML fit must pass a KS test against its own CDF.
	ks, err := stats.KolmogorovSmirnov1(xs, fit.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Rejected {
		t.Fatalf("ML fit rejected by KS: %+v", ks)
	}
}

func TestFitDegenerate(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 42
	}
	if _, err := FitGumbelMoments(xs); err != ErrDegenerateSample {
		t.Fatalf("moments on constant sample: err=%v", err)
	}
	if _, err := FitGumbelML(xs); err != ErrDegenerateSample {
		t.Fatalf("ML on constant sample: err=%v", err)
	}
}

func TestFitTooFew(t *testing.T) {
	if _, err := FitGumbelMoments([]float64{1}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBlockMaxima(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 3, 9, 0, 7} // blocks of 3: 5, 8, 9
	m, err := BlockMaxima(xs, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 8, 9}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("maxima = %v, want %v", m, want)
		}
	}
	// Trailing partial block discarded.
	m, err = BlockMaxima(append(xs, 100), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 {
		t.Fatalf("partial block not discarded: %v", m)
	}
	if _, err := BlockMaxima(xs, 0, 1); err == nil {
		t.Fatal("block=0 accepted")
	}
	if _, err := BlockMaxima(xs, 3, 10); err == nil {
		t.Fatal("minBlocks violation accepted")
	}
}

func TestTestIIDAcceptsIID(t *testing.T) {
	src := rng.New(4)
	accepted := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		xs := gumbelSample(src, Gumbel{Mu: 100, Beta: 5}, 300)
		rep, err := TestIID(xs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed {
			accepted++
		}
	}
	if accepted < trials*8/10 {
		t.Fatalf("i.i.d. gate accepted only %d/%d genuinely i.i.d. samples", accepted, trials)
	}
}

func TestTestIIDRejectsTrend(t *testing.T) {
	src := rng.New(5)
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i) + src.Float64() // strong drift
	}
	rep, err := TestIID(xs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatalf("i.i.d. gate passed a drifting sample: %+v", rep)
	}
}

func TestAnalyzePWCETBoundsECDF(t *testing.T) {
	// The pWCET at modest probabilities must upper-bound the empirical
	// observations: at p = 1/N it should be near the sample max, and it
	// must be monotone decreasing in p.
	src := rng.New(6)
	xs := gumbelSample(src, Gumbel{Mu: 10000, Beta: 150}, 1000)
	res, err := Analyze(xs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p15 := res.PWCET(1e-15)
	p17 := res.PWCET(1e-17)
	p19 := res.PWCET(1e-19)
	if !(p15 <= p17 && p17 <= p19) {
		t.Fatalf("pWCET not monotone: %v %v %v", p15, p17, p19)
	}
	if p15 < res.MaxSeen {
		t.Fatalf("pWCET(1e-15)=%v below observed max %v", p15, res.MaxSeen)
	}
	// Sanity: the extrapolation should be within a small factor of max.
	if p19 > res.MaxSeen*3 {
		t.Fatalf("pWCET(1e-19)=%v implausibly far above max %v", p19, res.MaxSeen)
	}
}

func TestAnalyzeDegenerate(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 777
	}
	res, err := Analyze(xs, Options{SkipIIDTests: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degenerate {
		t.Fatal("constant sample not flagged degenerate")
	}
	if res.PWCET(1e-15) != 777 {
		t.Fatalf("degenerate pWCET = %v", res.PWCET(1e-15))
	}
}

func TestAnalyzeRejectsNonIID(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := Analyze(xs, Options{}); err == nil {
		t.Fatal("Analyze accepted a non-i.i.d. sample")
	}
}

func TestAnalyzeTooFew(t *testing.T) {
	if _, err := Analyze([]float64{1, 2, 3}, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCCDFPointInvertsPWCET(t *testing.T) {
	src := rng.New(7)
	xs := gumbelSample(src, Gumbel{Mu: 100, Beta: 3}, 1000)
	res, err := Analyze(xs, Options{SkipIIDTests: true})
	if err != nil {
		t.Fatal(err)
	}
	p := 1e-12
	x := res.PWCET(p)
	if x == res.MaxSeen {
		// Clamped at the empirical max: CCDF there may exceed p.
		t.Skip("estimate clamped at empirical max")
	}
	got := res.CCDFPoint(x)
	if math.Abs(got-p)/p > 1e-3 {
		t.Fatalf("CCDFPoint(PWCET(%g)) = %g", p, got)
	}
}

func TestOptionsFillDefaults(t *testing.T) {
	o := Options{}
	o.fill(400)
	if o.Alpha != 0.05 || o.MinBlocks != 20 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.BlockSize < 2 || 400/o.BlockSize < o.MinBlocks {
		t.Fatalf("block size %d incompatible with 400 samples", o.BlockSize)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	src := rng.New(1)
	xs := gumbelSample(src, Gumbel{Mu: 1000, Beta: 20}, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Analyze(xs, Options{SkipIIDTests: true})
	}
}

// TestQuantileEVariantsRejectOutOfRange pins the error-returning quantile
// entry points: out-of-range probabilities are errors matching
// ErrProbabilityRange, never panics — these paths are reachable straight
// from service request JSON.
func TestQuantileEVariantsRejectOutOfRange(t *testing.T) {
	g := Gumbel{Mu: 100, Beta: 10}
	gpd := GPD{Sigma: 5, Xi: 0.1}
	bad := []float64{0, 1, -1, 2, math.NaN(), math.Inf(1)}
	for _, p := range bad {
		if _, err := g.QuantileE(p); !errors.Is(err, ErrProbabilityRange) {
			t.Errorf("Gumbel.QuantileE(%v) err = %v", p, err)
		}
		if _, err := g.QuantileExceedanceE(p); !errors.Is(err, ErrProbabilityRange) {
			t.Errorf("Gumbel.QuantileExceedanceE(%v) err = %v", p, err)
		}
		if _, err := gpd.QuantileExceedanceE(p); !errors.Is(err, ErrProbabilityRange) {
			t.Errorf("GPD.QuantileExceedanceE(%v) err = %v", p, err)
		}
	}
	// In-range values agree with the legacy panicking variants.
	for _, p := range []float64{1e-15, 0.01, 0.5, 0.999} {
		if v, err := g.QuantileE(p); err != nil || v != g.Quantile(p) {
			t.Errorf("QuantileE(%v) = %v, %v", p, v, err)
		}
		if v, err := g.QuantileExceedanceE(p); err != nil || v != g.QuantileExceedance(p) {
			t.Errorf("QuantileExceedanceE(%v) = %v, %v", p, v, err)
		}
		if v, err := gpd.QuantileExceedanceE(p); err != nil || v != gpd.QuantileExceedance(p) {
			t.Errorf("GPD QuantileExceedanceE(%v) = %v, %v", p, v, err)
		}
	}
}

// TestPWCETEErrorsNotPanics pins the analysis-level error variants on both
// EVT routes, and that the legacy variants still panic (their documented
// contract) rather than silently returning garbage.
func TestPWCETEErrorsNotPanics(t *testing.T) {
	src := rng.New(99)
	times := gumbelSample(src, Gumbel{Mu: 10000, Beta: 120}, 400)
	res, err := Analyze(times, Options{SkipIIDTests: true})
	if err != nil {
		t.Fatal(err)
	}
	pot, err := AnalyzePOT(times, POTOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 1, -3, math.NaN()} {
		if _, err := res.PWCETE(p); !errors.Is(err, ErrProbabilityRange) {
			t.Errorf("Result.PWCETE(%v) err = %v", p, err)
		}
		if _, err := pot.PWCETE(p); !errors.Is(err, ErrProbabilityRange) {
			t.Errorf("POTResult.PWCETE(%v) err = %v", p, err)
		}
		if _, _, _, err := CrossCheck(times, p); !errors.Is(err, ErrProbabilityRange) {
			t.Errorf("CrossCheck(%v) err = %v", p, err)
		}
	}
	if v, err := res.PWCETE(1e-15); err != nil || v != res.PWCET(1e-15) {
		t.Errorf("PWCETE(1e-15) = %v, %v", v, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("legacy PWCET(0) did not panic")
		}
	}()
	res.PWCET(0)
}
