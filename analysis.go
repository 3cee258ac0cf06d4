package efl

import (
	"context"
	"fmt"

	"efl/internal/mbpta"
	"efl/internal/sim"
)

// AnalysisOptions configures an MBPTA campaign.
type AnalysisOptions struct {
	// Runs is the number of end-to-end measurement runs (default 300; the
	// paper collected at most 1,000 per benchmark).
	Runs int
	// Seed determines every random draw (default 1).
	Seed uint64
	// SkipIIDCheck disables the i.i.d. gate (Wald-Wolfowitz +
	// Kolmogorov-Smirnov at alpha = 0.05). The gate is part of the MBPTA
	// protocol; skip it only for experiments that evaluate it separately.
	SkipIIDCheck bool
}

func (o AnalysisOptions) withDefaults() AnalysisOptions {
	if o.Runs == 0 {
		o.Runs = 300
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PWCETEstimate is the outcome of an MBPTA campaign: a fitted execution
// time distribution from which pWCET values at arbitrary exceedance
// probabilities can be read.
type PWCETEstimate struct {
	// Times are the collected execution times in run order (cycles).
	Times []float64
	// IID reports the compliance tests (§4.2): independence via
	// Wald-Wolfowitz (|Z| < 1.96) and identical distribution via
	// Kolmogorov-Smirnov (p > 0.05). It is zero when the battery could not
	// run (a constant sample, fitted only with SkipIIDCheck).
	IID mbpta.IIDReport

	res *mbpta.Result
}

// PWCET returns the execution-time bound whose probability of being
// exceeded by one run is at most p (e.g. 1e-15, the paper's headline
// cutoff). The estimate never falls below the observed maximum. It panics
// when p is outside (0,1); use PWCETE where p comes from untrusted input.
func (e *PWCETEstimate) PWCET(p float64) float64 { return e.res.PWCET(p) }

// PWCETE is PWCET with an error return instead of a panic on an
// out-of-range exceedance probability — the entry point services use,
// where p arrives from request JSON.
func (e *PWCETEstimate) PWCETE(p float64) (float64, error) { return e.res.PWCETE(p) }

// Exceedance returns the fitted per-run probability that one execution
// exceeds x cycles — a point on the pWCET CCDF curve.
func (e *PWCETEstimate) Exceedance(x float64) float64 { return e.res.CCDFPoint(x) }

// MaxObserved returns the high-water mark of the measurement runs.
func (e *PWCETEstimate) MaxObserved() float64 { return e.res.MaxSeen }

// EstimatePWCET runs the full MBPTA protocol for prog on the platform
// described by cfg: the program is placed alone on core 0 in analysis mode
// (with EFL enabled, the other cores' CRGs evict at the maximum allowed
// frequency; bus and memory accesses are charged the worst-case contention
// envelope), Runs end-to-end execution times are collected with fresh
// cache randomisation per run, the i.i.d. gate is applied, and block
// maxima are fitted with a Gumbel distribution.
func EstimatePWCET(cfg Config, prog *Program, opt AnalysisOptions) (*PWCETEstimate, error) {
	opt = opt.withDefaults()
	times, res, err := sim.NewPool().Estimate(context.Background(), cfg, prog,
		sim.EstimateSpec{Runs: opt.Runs, Seed: opt.Seed, SkipIID: opt.SkipIIDCheck})
	if err != nil {
		if times == nil {
			return nil, err
		}
		return nil, fmt.Errorf("efl: MBPTA analysis of %q: %w", prog.Name, err)
	}
	return &PWCETEstimate{Times: times, IID: res.IID, res: res}, nil
}

// MeasureDeployment runs the given programs together at deployment (real
// contention, EFL gating active when cfg.MID > 0) for runs runs and
// returns each run's Result.
func MeasureDeployment(cfg Config, progs []*Program, runs int, seed uint64) ([]*Result, error) {
	if runs < 1 {
		return nil, fmt.Errorf("efl: need at least one run")
	}
	p, err := NewPlatform(cfg, progs, seed)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, runs)
	for i := range out {
		r, err := p.Run()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
