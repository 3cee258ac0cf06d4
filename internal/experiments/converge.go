package experiments

// Convergence-stopped MBPTA collection (Options.Converge): the campaign
// streams runs one after the other through the worker pool's replaying
// platform and folds each execution time into an mbpta.Stream, stopping
// as soon as the streaming pWCET estimate stabilises instead of always
// simulating Options.Runs runs. Per-run seeds are derived from the run
// index (runner.RunSeed), so the collected sample — and the stopping point —
// is a function of the campaign seed alone, and no run is simulated past
// the stop.

import (
	"context"

	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/sim"
)

// streamOptions maps campaign options onto the incremental estimator:
// the campaign's run budget is the ceiling, its probability the tracked
// quantile.
func (o Options) streamOptions() mbpta.StreamOptions {
	return mbpta.StreamOptions{
		Options: mbpta.Options{SkipIIDTests: true},
		Prob:    o.Prob,
		MaxRuns: o.Runs,
	}
}

// pooledPWCETConverged is pooledPWCET's convergence-stopped counterpart:
// collect through the stream until the estimate stabilises (or the
// run budget is exhausted), then run the same authoritative analysis over
// the collected sample. Every consumed run is audited like the fixed-count
// path's.
func pooledPWCETConverged(ctx context.Context, pool *sim.Pool, opt Options, cfg sim.Config, prog *isa.Program, seed uint64) (PWCETResult, []float64, error) {
	stream, err := mbpta.NewStream(opt.streamOptions())
	if err != nil {
		return PWCETResult{}, nil, err
	}
	_, err = pool.StreamAnalysisTimes(ctx, cfg, prog, 0, opt.Runs,
		func(i int) uint64 { return runner.RunSeed(seed, i) }, stream.Add)
	if err != nil {
		return PWCETResult{}, nil, err
	}
	times := stream.Times()
	res, err := pwcetFromTimes(times, prog.Name, opt.Prob)
	return res, times, err
}
