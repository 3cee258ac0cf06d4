package experiments

import (
	"context"
	"fmt"
	"strings"

	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/sim"
)

// ConvergenceRow tracks how one benchmark's pWCET estimate stabilises as
// measurement runs accumulate — the paper's §3.3 claim is that MBPTA's
// convergence criteria are met "between 300 and 1,000 runs" on this kind
// of platform.
type ConvergenceRow struct {
	Code string
	// Estimates maps run counts to the pWCET estimate at Options.Prob.
	Estimates map[int]float64
	// CollectorRuns is where the convergence stopping rule production
	// campaigns use (mbpta.Stream under -converge) stopped, with the
	// paper's 1,000-run ceiling. The name predates that rule and is kept
	// for the artifact's JSON layout.
	CollectorRuns int
	// FinalEstimate is the pWCET of the convergence-stopped campaign.
	FinalEstimate float64
}

// ConvergenceResult is the E7 extension experiment.
type ConvergenceResult struct {
	Opt       Options
	RunCounts []int
	MID       int64
	Rows      []ConvergenceRow
}

// convergenceCeiling is the run budget of the study's convergence-stopped
// campaign: the paper's 1,000-run ceiling (§3.3).
const convergenceCeiling = 1000

// ConvergenceStudy measures pWCET stability across sample sizes and runs
// the convergence-stopped campaign production uses for each benchmark
// under EFL.
func ConvergenceStudy(opt Options, mid int64, runCounts []int, codes []string) (*ConvergenceResult, error) {
	opt = opt.withDefaults()
	if len(runCounts) == 0 {
		runCounts = []int{100, 200, 400, 800}
	}
	res := &ConvergenceResult{Opt: opt, RunCounts: runCounts, MID: mid}
	maxRuns := runCounts[len(runCounts)-1]
	rows, err := runner.MapWithState(opt.context(), opt.runnerOptions(), opt.newPool, codes,
		func(ctx context.Context, pool *sim.Pool, _ int, code string) (ConvergenceRow, error) {
			spec, err := specByCode(code)
			if err != nil {
				return ConvergenceRow{}, err
			}
			prog := spec.Build()
			seed := campaignSeed(opt.Seed, fmt.Sprintf("%s/convergence", code))
			// One long collection, analysed at growing prefixes: it keeps
			// the study cheap (no re-simulation per point).
			times, err := pool.CollectAnalysisTimes(ctx, eflConfig(mid), prog, maxRuns, seed)
			if err != nil {
				return ConvergenceRow{}, err
			}
			row := ConvergenceRow{Code: code, Estimates: map[int]float64{}}
			for _, n := range runCounts {
				if n > len(times) {
					continue
				}
				a, err := mbpta.Analyze(times[:n], mbpta.Options{SkipIIDTests: true})
				if err != nil {
					return ConvergenceRow{}, fmt.Errorf("%s at %d runs: %w", code, n, err)
				}
				row.Estimates[n] = a.PWCET(opt.Prob)
			}
			// The convergence-stopped campaign -converge runs, under the
			// same campaign seed.
			final, _, err := pooledPWCET(ctx, pool, eflConfig(mid), prog,
				sim.EstimateSpec{Runs: convergenceCeiling, Seed: seed, Converge: true, Prob: opt.Prob})
			if err != nil {
				return ConvergenceRow{}, fmt.Errorf("%s: converged campaign: %w", code, err)
			}
			row.CollectorRuns = final.Runs
			row.FinalEstimate = final.PWCET
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render prints the study: estimates normalised to the largest-sample
// estimate, plus the convergence-stopped campaign's run count.
func (r *ConvergenceResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MBPTA convergence under EFL (MID=%d), pWCET@%.0e normalised to the largest sample\n",
		r.MID, r.Opt.Prob)
	fmt.Fprintf(&sb, "%-5s", "bench")
	for _, n := range r.RunCounts {
		fmt.Fprintf(&sb, " %8d", n)
	}
	fmt.Fprintf(&sb, " %15s\n", "stream stops")
	last := r.RunCounts[len(r.RunCounts)-1]
	for _, row := range r.Rows {
		base := row.Estimates[last]
		fmt.Fprintf(&sb, "%-5s", row.Code)
		for _, n := range r.RunCounts {
			fmt.Fprintf(&sb, " %8.3f", row.Estimates[n]/base)
		}
		fmt.Fprintf(&sb, " %10d runs\n", row.CollectorRuns)
	}
	return sb.String()
}
