package experiments

import (
	"context"
	"math"
	"testing"

	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/sim"
)

// TestConvergedCampaignBatchInvariant: the convergence-stopped sample is
// defined by the run index alone — run i is exactly a fresh RunAnalysis
// under runner.RunSeed(campaign, i), and the campaign stops where an
// independent stream fed those reference times stops.
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
	_, times, err := pooledPWCETConverged(context.Background(), opt.newPool(), opt, eflConfig(500), prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("converged at %d runs (ceiling %d)", len(times), opt.Runs)
	ref, err := mbpta.NewStream(opt.streamOptions())
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for i := range times {
		want, err := sim.RunAnalysis(eflConfig(500), prog, runner.RunSeed(seed, i))
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

	fixed, fixedTimes, err := pooledPWCET(context.Background(), opt.newPool(), eflConfig(500), prog, opt.Runs, seed, opt.Prob)
	if err != nil {
		t.Fatal(err)
	}
	copt := opt
	copt.Converge = true
	conv, convTimes, err := pooledPWCETConverged(context.Background(), copt.newPool(), copt, eflConfig(500), prog, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(convTimes) > len(fixedTimes) {
		t.Fatalf("converged campaign used %d runs, more than the fixed count %d", len(convTimes), len(fixedTimes))
	}
	fa, err := pwcetFromTimes(fixedTimes, "CA", evtCheckProb)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := pwcetFromTimes(convTimes, "CA", evtCheckProb)
	if err != nil {
		t.Fatal(err)
	}
	disagree := math.Abs(ca.PWCET-fa.PWCET) / math.Max(ca.PWCET, fa.PWCET)
	if disagree > evtThreshold {
		t.Fatalf("converged pWCET %.0f (at %d runs) vs fixed-count %.0f (at %d runs) at p=%g: disagreement %.3f > A4 threshold %.2f",
			ca.PWCET, len(convTimes), fa.PWCET, len(fixedTimes), evtCheckProb, disagree, evtThreshold)
	}
	t.Logf("converged %d runs pWCET %.0f vs fixed %d runs pWCET %.0f at p=%g (disagreement %.3f); at %g: %.0f vs %.0f",
		len(convTimes), ca.PWCET, len(fixedTimes), fa.PWCET, evtCheckProb, disagree, opt.Prob, conv.PWCET, fixed.PWCET)
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
	_, times, err := pooledPWCETConverged(context.Background(), opt.newPool(), opt, eflConfig(500), spec.Build(), seed)
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
