package sim

import (
	"context"
	"reflect"
	"testing"

	"efl/internal/bench"
	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/workload"
)

// estimateOutcome is what one estimate composition produced.
type estimateOutcome struct {
	times []float64
	res   *mbpta.Result
	err   string
}

func outcome(times []float64, res *mbpta.Result, err error) estimateOutcome {
	o := estimateOutcome{times: times, res: res}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// withBattery folds a separately run i.i.d. battery into res the way
// Analyze now reports it.
func withBattery(res *mbpta.Result, times []float64) *mbpta.Result {
	if res == nil {
		return nil
	}
	if iid, err := mbpta.TestIID(times); err == nil {
		res.IID, res.IIDChecked = iid, true
	}
	return res
}

// The three compositions callers assembled before Pool.Estimate, each
// kept as it was written: the gated fixed-count estimate, the fixed-count
// fit with the battery run on its own, and the converged stream.

func refFixedGated(ctx context.Context, pool *Pool, cfg Config, prog *isa.Program, runs int, seed uint64) estimateOutcome {
	times, cerr := pool.CollectAnalysisTimes(ctx, cfg, prog, runs, seed)
	if cerr != nil {
		return outcome(nil, nil, cerr)
	}
	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: false})
	return outcome(times, res, err)
}

func refFixedSkipped(ctx context.Context, pool *Pool, cfg Config, prog *isa.Program, runs int, seed uint64) estimateOutcome {
	times, err := pool.CollectAnalysisTimes(ctx, cfg, prog, runs, seed)
	if err != nil {
		return outcome(nil, nil, err)
	}
	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: true})
	return outcome(times, withBattery(res, times), err)
}

func refConverged(ctx context.Context, pool *Pool, cfg Config, prog *isa.Program, runs int, seed uint64, prob float64, skipIID bool) estimateOutcome {
	stream, serr := mbpta.NewStream(mbpta.StreamOptions{
		Options: mbpta.Options{SkipIIDTests: true},
		Prob:    prob,
		MaxRuns: runs,
	})
	if serr != nil {
		return outcome(nil, nil, serr)
	}
	if _, serr := pool.StreamAnalysisTimes(ctx, cfg, prog, 0, runs,
		func(i int) uint64 { return runner.RunSeed(seed, i) },
		stream.Add); serr != nil {
		return outcome(nil, nil, serr)
	}
	times := stream.Times()
	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: skipIID})
	if skipIID {
		res = withBattery(res, times)
	}
	return outcome(times, res, err)
}

// estimatePrograms are the differential test's inputs: two kernels and a
// generated trace program.
func estimatePrograms(t *testing.T) []*isa.Program {
	t.Helper()
	progs := []*isa.Program{}
	for _, code := range []string{"CA", "MA"} {
		spec, err := bench.ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, spec.Build())
	}
	data, err := workload.GenSpec{Name: "mixed", Seed: 5, Records: 1500, FootprintBytes: 32 << 10,
		Locality: 0.5, StoreFrac: 0.5, MeanGap: 6}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.Replay("mixed", data)
	if err != nil {
		t.Fatal(err)
	}
	return append(progs, gen)
}

// TestEstimateMatchesCompositions is the differential test of
// Pool.Estimate: on every input it returns the times, Result and error the
// compositions it replaced returned, with the battery's report folded into
// the Result where the gate was lifted.
func TestEstimateMatchesCompositions(t *testing.T) {
	const runs, seed, prob = 150, 11, 1e-15
	ctx := context.Background()
	cfg := DefaultConfig().WithEFL(500)
	for _, prog := range estimatePrograms(t) {
		cases := []struct {
			name string
			spec EstimateSpec
			ref  func() estimateOutcome
		}{
			{"fixed/gated", EstimateSpec{Runs: runs, Seed: seed},
				func() estimateOutcome { return refFixedGated(ctx, NewPool(), cfg, prog, runs, seed) }},
			{"fixed/skipped", EstimateSpec{Runs: runs, Seed: seed, SkipIID: true},
				func() estimateOutcome { return refFixedSkipped(ctx, NewPool(), cfg, prog, runs, seed) }},
			{"converged/gated", EstimateSpec{Runs: runs, Seed: seed, Converge: true, Prob: prob},
				func() estimateOutcome { return refConverged(ctx, NewPool(), cfg, prog, runs, seed, prob, false) }},
			{"converged/skipped", EstimateSpec{Runs: runs, Seed: seed, Converge: true, Prob: prob, SkipIID: true},
				func() estimateOutcome { return refConverged(ctx, NewPool(), cfg, prog, runs, seed, prob, true) }},
		}
		for _, tc := range cases {
			t.Run(prog.Name+"/"+tc.name, func(t *testing.T) {
				want := tc.ref()
				got := outcome(NewPool().Estimate(ctx, cfg, prog, tc.spec))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("Estimate:\n%d times, res %+v, err %q\nwant:\n%d times, res %+v, err %q",
						len(got.times), got.res, got.err, len(want.times), want.res, want.err)
				}
				if len(got.times) == 0 || (got.err == "" && !got.res.IIDChecked) {
					t.Fatalf("vacuous comparison: %d times, res %+v, err %q", len(got.times), got.res, got.err)
				}
			})
		}
	}
}
