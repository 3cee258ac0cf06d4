package experiments

import (
	"context"
	"math"
	"testing"

	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/sim"
)

// convergedSpec is the converged campaign runCampaigns runs for opt under
// seed, with opt.Runs as its ceiling.
func convergedSpec(opt Options, seed uint64) sim.EstimateSpec {
	return sim.EstimateSpec{Runs: opt.Runs, Seed: seed, Converge: true, Prob: opt.Prob}
}

// pwcetAt fits times with the i.i.d. gate lifted and reads the pWCET at p.
func pwcetAt(t *testing.T, times []float64, p float64) float64 {
	t.Helper()
	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.PWCET(p)
}

// TestConvergedCampaignBatchInvariant: the convergence-stopped sample is
// defined by the run index alone — run i is exactly one run of a fresh
// analysis-mode platform seeded runner.RunSeed(campaign, i), and the
// campaign stops where an independent stream fed those reference times
// stops.
func TestConvergedCampaignBatchInvariant(t *testing.T) {
	spec, err := specByCode("CA")
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpt().withDefaults()
	opt.Runs = 300
	opt.Converge = true
	seed := campaignSeed(opt.Seed, "CA/EFL500")
	prog := spec.Build()
	_, times, err := pooledPWCET(context.Background(), opt.newPool(), eflConfig(500), prog, convergedSpec(opt, seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("converged at %d runs (ceiling %d)", len(times), opt.Runs)
	ref, err := mbpta.NewStream(mbpta.StreamOptions{Prob: opt.Prob, MaxRuns: opt.Runs})
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	progs := make([]*isa.Program, eflConfig(500).Cores)
	progs[0] = prog
	for i := range times {
		m, err := sim.New(eflConfig(500), progs, runner.RunSeed(seed, i))
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if times[i] != float64(want.PerCore[0].Cycles) {
			t.Fatalf("run %d time %v != fresh run time %d", i, times[i], want.PerCore[0].Cycles)
		}
		if stopped == 0 && ref.Add(times[i]) {
			stopped = i + 1
		}
	}
	if stopped != len(times) {
		t.Fatalf("campaign consumed %d runs, a fresh stream over the same times stops at %d", len(times), stopped)
	}
}

// TestConvergedCampaignAgreesWithFixedCount is the acceptance check: a
// convergence-stopped campaign must reproduce the fixed-count pWCET
// estimate within the A4 agreement threshold (evtThreshold, the
// same relative-disagreement bound the auditor's EVT cross-check uses).
// The comparison runs at evtCheckProb, like A4 itself: at 1e-15 two
// honest estimates extrapolate too far for a threshold comparison to
// mean anything (see the evtCheckProb comment in engine.go).
func TestConvergedCampaignAgreesWithFixedCount(t *testing.T) {
	spec, err := specByCode("CA")
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpt().withDefaults()
	opt.Runs = 300
	seed := campaignSeed(opt.Seed, "CA/EFL500")
	prog := spec.Build()

	fixed, fixedTimes, err := pooledPWCET(context.Background(), opt.newPool(), eflConfig(500), prog,
		sim.EstimateSpec{Runs: opt.Runs, Seed: seed, Prob: opt.Prob})
	if err != nil {
		t.Fatal(err)
	}
	conv, convTimes, err := pooledPWCET(context.Background(), opt.newPool(), eflConfig(500), prog, convergedSpec(opt, seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(convTimes) > len(fixedTimes) {
		t.Fatalf("converged campaign used %d runs, more than the fixed count %d", len(convTimes), len(fixedTimes))
	}
	fa, ca := pwcetAt(t, fixedTimes, evtCheckProb), pwcetAt(t, convTimes, evtCheckProb)
	disagree := math.Abs(ca-fa) / math.Max(ca, fa)
	if disagree > evtThreshold {
		t.Fatalf("converged pWCET %.0f (at %d runs) vs fixed-count %.0f (at %d runs) at p=%g: disagreement %.3f > A4 threshold %.2f",
			ca, len(convTimes), fa, len(fixedTimes), evtCheckProb, disagree, evtThreshold)
	}
	t.Logf("converged %d runs pWCET %.0f vs fixed %d runs pWCET %.0f at p=%g (disagreement %.3f); at %g: %.0f vs %.0f",
		len(convTimes), ca, len(fixedTimes), fa, evtCheckProb, disagree, opt.Prob, conv.PWCET, fixed.PWCET)
}

// TestConvergedCampaignAudited: a converged campaign under the auditor
// records one run check per consumed run and stays clean.
func TestConvergedCampaignAudited(t *testing.T) {
	spec, err := specByCode("CA")
	if err != nil {
		t.Fatal(err)
	}
	opt := smallOpt().withDefaults()
	opt.Runs = 200
	opt.Converge = true
	opt.Audit = sim.NewAuditor()
	seed := campaignSeed(opt.Seed, "CA/EFL500")
	_, times, err := pooledPWCET(context.Background(), opt.newPool(), eflConfig(500), spec.Build(), convergedSpec(opt, seed))
	if err != nil {
		t.Fatal(err)
	}
	opt.auditEVT("CA/EFL500", times)
	if err := opt.Audit.Err(); err != nil {
		t.Fatalf("auditor flagged the converged campaign: %v", err)
	}
	rep := opt.Audit.Report()
	if rep.Runs != int64(len(times)) {
		t.Fatalf("auditor saw %d runs, campaign consumed %d", rep.Runs, len(times))
	}
}

// TestRunCampaignsConverge: the campaign driver end-to-end under Converge
// — results keyed and rendered like the fixed-count path, with Runs
// reporting the convergence stopping point.
func TestRunCampaignsConverge(t *testing.T) {
	opt := smallOpt().withDefaults()
	opt.Runs = 200
	opt.Converge = true
	opt.Parallelism = 1
	spec, err := specByCode("CA")
	if err != nil {
		t.Fatal(err)
	}
	out, err := runCampaigns(opt, []campaign{{bench: spec, config: "EFL500", cfg: eflConfig(500)}})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := out["CA/EFL500"]
	if !ok {
		t.Fatalf("campaign missing from results: %v", out)
	}
	if res.Runs <= 0 || res.Runs > opt.Runs {
		t.Fatalf("converged campaign Runs = %d, want in (0,%d]", res.Runs, opt.Runs)
	}
	if res.PWCET < res.Max {
		t.Fatalf("pWCET %v below observed max %v", res.PWCET, res.Max)
	}
}
