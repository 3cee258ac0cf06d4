package mbpta

import (
	"fmt"
	"math"

	"efl/internal/stats"
)

// Options configures the MBPTA protocol.
type Options struct {
	// BlockSize is the block-maxima block size. The default (0) selects
	// a size targeting around 30-50 blocks from the available sample.
	BlockSize int
	// MinBlocks is the minimum number of block maxima required for a fit
	// (default 20).
	MinBlocks int
	// Alpha is the i.i.d. test significance level; only 0.05 is supported
	// (the paper's value) and it is recorded for reporting.
	Alpha float64
	// SkipIIDTests disables the i.i.d. gate (used by experiments that test
	// i.i.d. separately, or by ablations that deliberately break it).
	SkipIIDTests bool
}

func (o *Options) fill(n int) {
	if o.Alpha == 0 {
		o.Alpha = 0.05
	}
	if o.MinBlocks == 0 {
		o.MinBlocks = 20
	}
	if o.BlockSize == 0 {
		// Aim for ~40 blocks, but never fewer than MinBlocks and never a
		// block smaller than 2.
		bs := n / 40
		if bs < 2 {
			bs = 2
		}
		for n/bs < o.MinBlocks && bs > 2 {
			bs--
		}
		o.BlockSize = bs
	}
}

// validate rejects option/sample combinations that cannot produce a fit,
// before any statistical work runs. The streaming estimator hits this path
// repeatedly at small sample counts, so the error must be cheap, early and
// descriptive — previously a too-large BlockSize only surfaced from
// BlockMaxima after the i.i.d. battery had already run over the sample.
// Call after fill(n) so the auto-picked BlockSize is covered too.
func (o *Options) validate(n int) error {
	if o.BlockSize < 2 {
		return fmt.Errorf("mbpta: BlockSize %d is not a usable block size (need >= 2)", o.BlockSize)
	}
	if blocks := n / o.BlockSize; blocks < o.MinBlocks {
		return fmt.Errorf("mbpta: %d samples with BlockSize %d yield only %d full blocks, need at least MinBlocks=%d (collect >= %d samples or shrink BlockSize)",
			n, o.BlockSize, blocks, o.MinBlocks, o.BlockSize*o.MinBlocks)
	}
	return nil
}

// IIDReport carries the outcome of the MBPTA compliance tests (paper §4.2):
// Wald-Wolfowitz for independence (accept when |Z| < 1.96) and two-sample
// Kolmogorov-Smirnov between the two halves of the observation sequence for
// identical distribution (accept when p > 0.05). A Ljung-Box portmanteau
// test is reported as a supplementary independence diagnostic (it detects
// linear autocorrelation the runs test can miss); it does not gate Passed,
// which follows the paper's two-test criterion exactly.
type IIDReport struct {
	WW     stats.RunsTestResult
	KS     stats.KSResult
	LB     stats.LjungBoxResult
	Passed bool
}

// TestIID runs the paper's i.i.d. battery over an execution-time sample in
// observation order.
func TestIID(times []float64) (IIDReport, error) {
	if len(times) < 20 {
		return IIDReport{}, stats.ErrTooFewSamples
	}
	ww, err := stats.WaldWolfowitz(times)
	if err != nil {
		return IIDReport{}, fmt.Errorf("mbpta: runs test: %w", err)
	}
	half := len(times) / 2
	ks, err := stats.KolmogorovSmirnov2(times[:half], times[half:])
	if err != nil {
		return IIDReport{}, fmt.Errorf("mbpta: KS test: %w", err)
	}
	rep := IIDReport{WW: ww, KS: ks, Passed: !ww.Rejected && !ks.Rejected}
	if lb, err := stats.LjungBox(times, 0); err == nil {
		rep.LB = lb
	}
	return rep, nil
}

// Result is the outcome of one MBPTA analysis.
type Result struct {
	Runs       int    // number of execution-time observations used
	BlockSize  int    // block-maxima block size
	NumBlocks  int    // number of blocks fitted
	Fit        Gumbel // fitted tail distribution (of block maxima)
	FitKS      stats.KSResult
	IID        IIDReport
	IIDChecked bool
	MaxSeen    float64 // high-water mark of the observations
	Degenerate bool    // sample was (near-)constant; pWCET = MaxSeen
}

// Analyze runs the MBPTA pipeline over the execution times (in observation
// order): i.i.d. gate, block maxima, Gumbel ML fit, fit validation.
func Analyze(times []float64, opt Options) (*Result, error) {
	if len(times) < 20 {
		return nil, stats.ErrTooFewSamples
	}
	opt.fill(len(times))
	if err := opt.validate(len(times)); err != nil {
		return nil, err
	}
	res := &Result{Runs: len(times), BlockSize: opt.BlockSize, MaxSeen: stats.Max(times)}
	if !opt.SkipIIDTests {
		iid, err := TestIID(times)
		if err != nil {
			return nil, err
		}
		res.IID = iid
		res.IIDChecked = true
		if !iid.Passed {
			return res, fmt.Errorf("mbpta: sample failed i.i.d. tests (WW |Z|=%.3f, KS p=%.4f)",
				iid.WW.AbsZ, iid.KS.PValue)
		}
	}
	maxima, err := BlockMaxima(times, opt.BlockSize, opt.MinBlocks)
	if err != nil {
		return nil, err
	}
	res.NumBlocks = len(maxima)
	fit, err := FitGumbelML(maxima)
	if err == ErrDegenerateSample {
		// Constant execution time: the pWCET at any probability is the
		// observed value itself.
		res.Degenerate = true
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	res.Fit = fit
	if ks, err := stats.KolmogorovSmirnov1(maxima, fit.CDF); err == nil {
		res.FitKS = ks
	}
	return res, nil
}

// PWCET returns the pWCET estimate at per-run exceedance probability p
// (e.g. 1e-15): the execution time whose probability of being exceeded by
// one run is at most p. The fitted distribution describes block maxima of
// BlockSize runs, so the per-run probability is first converted to a
// per-block probability: P(block max > x) = 1-(1-p)^B, computed stably for
// tiny p. The estimate is never below the observed maximum (EVT
// extrapolates the tail; the empirical part is exact).
func (r *Result) PWCET(p float64) float64 {
	v, err := r.PWCETE(p)
	if err != nil {
		panic(err.Error())
	}
	return v
}

// PWCETE is PWCET with an error return instead of a panic on an
// out-of-range probability — the variant servers must use, where p
// arrives from untrusted request JSON.
func (r *Result) PWCETE(p float64) (float64, error) {
	if err := checkProb(p); err != nil {
		return 0, fmt.Errorf("pWCET: %w", err)
	}
	if r.Degenerate {
		return r.MaxSeen, nil
	}
	// pBlock = 1-(1-p)^B = -expm1(B*log1p(-p)), stable for small p.
	pBlock := -math.Expm1(float64(r.BlockSize) * math.Log1p(-p))
	est, err := r.Fit.QuantileExceedanceE(pBlock)
	if err != nil {
		return 0, err
	}
	if est < r.MaxSeen {
		return r.MaxSeen, nil
	}
	return est, nil
}

// CCDFPoint returns the fitted per-run exceedance probability at execution
// time x: P(one run > x) = 1 - (1 - P(block max > x))^(1/B).
func (r *Result) CCDFPoint(x float64) float64 {
	if r.Degenerate {
		if x >= r.MaxSeen {
			return 0
		}
		return 1
	}
	pb := r.Fit.CCDF(x)
	// per-run = 1-(1-pb)^(1/B) = -expm1(log1p(-pb)/B)
	return -math.Expm1(math.Log1p(-pb) / float64(r.BlockSize))
}
