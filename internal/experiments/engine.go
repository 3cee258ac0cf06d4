// Package experiments regenerates the paper's evaluation (§4): the MBPTA
// compliance table, Figure 3 (pWCET of EFL vs cache partitioning per
// benchmark) and Figure 4 (guaranteed and average performance improvement
// of EFL over CP across 1,024 random workloads), plus the ablations listed
// in DESIGN.md.
//
// Every experiment is deterministic given Options.Seed: per-campaign seeds
// are derived by hashing the master seed with the campaign's identity
// (runner.Seed), so results do not depend on goroutine scheduling or the
// worker count even though campaigns run in parallel. All drivers fan out
// through internal/runner; each worker holds a sim.Pool so platforms are
// rewound (sim.Multicore.Reuse) instead of reconstructed per campaign.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"efl/internal/bench"
	"efl/internal/isa"
	"efl/internal/mbpta"
	"efl/internal/runner"
	"efl/internal/sim"
)

// Options scales the campaigns. The zero value is filled with defaults
// matching the paper where feasible. Fields tagged `json:"-"` are
// execution knobs, not campaign parameters: artifacts embedding Options
// are invariant under them.
type Options struct {
	// Seed is the master seed (default 1).
	Seed uint64
	// Runs is the number of measurement runs per (benchmark, config)
	// MBPTA campaign (default 300; the paper collected at most 1,000).
	Runs int
	// Workloads is the number of random 4-benchmark workloads for
	// Figure 4 (default 1024, the paper's count).
	Workloads int
	// DeployRuns is how many deployment runs are averaged per workload
	// configuration when measuring waIPC (default 2).
	DeployRuns int
	// Prob is the pWCET exceedance cutoff (default 1e-15 per run, the
	// paper's headline probability).
	Prob float64
	// MIDs are the EFL configurations (default {250, 500, 1000}).
	MIDs []int64
	// CPWays are the per-task way counts for Figure 3 (default {1,2,4}).
	CPWays []int
	// Parallelism bounds concurrent campaigns (default GOMAXPROCS).
	// Results are worker-count invariant.
	Parallelism int `json:"-"`
	// Progress, when non-nil, receives one line per completed campaign.
	// Calls are serialised.
	Progress func(string) `json:"-"`
	// Ctx, when non-nil, cancels in-flight campaigns: drivers return
	// context.Canceled and completed checkpoint items survive.
	Ctx context.Context `json:"-"`
	// Checkpoint, when non-empty, is the path Figure4 persists completed
	// workloads to after every item, and resumes from on the next run.
	Checkpoint string `json:"-"`
	// Audit, when non-nil, receives a soundness check of every simulation
	// run and every MBPTA sample the campaigns produce (the -audit flag).
	// It never alters results: workers share it through their pools and
	// record into it under its own lock.
	Audit *sim.Auditor `json:"-"`
	// OnProgress, when non-nil, receives the runner's structured progress
	// snapshots (live -metrics-addr endpoint). Calls are serialised.
	OnProgress func(runner.Progress) `json:"-"`
	// Retries is how many times the resilient drivers re-run a failed or
	// panicked job on fresh worker state (the -retries flag). Watchdog
	// kills are never retried. Execution knob: it changes Outcome.Attempts
	// inside results but never which jobs succeed for deterministic jobs.
	Retries int `json:"-"`
	// Converge switches the MBPTA campaigns (compliance table, Figures
	// 3 and 4, the MID sweep — everything routed through runCampaigns)
	// from fixed-count collection to the convergence-stopped protocol:
	// each run is seeded from its index, and collection stops as soon as
	// the streaming pWCET estimate at Prob stabilises, with Runs as the
	// ceiling. A campaign parameter: it changes the collected sample (and
	// usually its size).
	Converge bool
	// FaultRuns is the number of fault-injected runs per detection-matrix
	// scenario (default 5). A campaign parameter: it shapes the artifact.
	FaultRuns int
	// FaultCalib is the number of fault-free calibration runs that size
	// each scenario's watchdog budget (default 2).
	FaultCalib int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Runs == 0 {
		o.Runs = 300
	}
	if o.Workloads == 0 {
		o.Workloads = 1024
	}
	if o.DeployRuns == 0 {
		o.DeployRuns = 2
	}
	if o.Prob == 0 {
		o.Prob = 1e-15
	}
	if len(o.MIDs) == 0 {
		o.MIDs = []int64{250, 500, 1000}
	}
	if len(o.CPWays) == 0 {
		o.CPWays = []int{1, 2, 4}
	}
	if o.FaultRuns == 0 {
		o.FaultRuns = 5
	}
	if o.FaultCalib == 0 {
		o.FaultCalib = 2
	}
	return o
}

// context returns the campaign context (background when unset).
func (o Options) context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// runnerOptions maps the execution knobs onto the work engine.
func (o Options) runnerOptions() runner.Options {
	return runner.Options{Parallelism: o.Parallelism, Progress: o.OnProgress}
}

// newPool constructs a worker-local platform pool carrying the campaign
// auditor; drivers pass it to runner.MapWithState as the state constructor
// so every pooled run is audited when Audit is set.
func (o Options) newPool() *sim.Pool {
	p := sim.NewPool()
	p.SetAuditor(o.Audit)
	return p
}

// evtCheckProb is the exceedance probability at which invariant A4
// compares the block-maxima and POT estimates. It is deliberately milder
// than the reporting probability: at 1e-15 both estimators extrapolate
// twelve orders of magnitude past a few-hundred-run sample and their
// relative disagreement on perfectly sound data reaches ~0.99 (measured
// across every benchmark x MID pair at 150-1000 runs), so a deep-tail
// comparison cannot separate a fragile fit from an honest one. At 1e-3
// the same sweep tops out at 0.074: both routes are still anchored by
// the data, and a disagreement past evtThreshold genuinely signals a
// broken tail fit rather than extrapolation variance.
const evtCheckProb = 1e-3

// evtThreshold is the maximum tolerated relative disagreement between the
// block-maxima and POT pWCET estimates at evtCheckProb before the auditor
// flags a campaign (invariant A4).
const evtThreshold = 0.25

// auditEVT records invariant A4 for one campaign sample: the block-maxima
// and POT pWCET estimates at evtCheckProb must agree within evtThreshold.
// Samples too small for a POT fit are skipped, not flagged — AnalyzePOT
// needs 5*MinExcesses observations before the comparison means anything.
func (o Options) auditEVT(name string, times []float64) {
	if o.Audit == nil {
		return
	}
	bm, pot, disagree, err := mbpta.CrossCheck(times, evtCheckProb)
	if err != nil {
		return
	}
	detail := ""
	ok := disagree <= evtThreshold
	if !ok {
		detail = fmt.Sprintf("%s: block-maxima pWCET %.0f vs POT %.0f at p=%.0e (disagreement %.2f > %.2f)",
			name, bm, pot, evtCheckProb, disagree, evtThreshold)
	}
	o.Audit.Record(sim.AuditEVTCrossCheck, ok, detail)
}

// fingerprint identifies the campaign parameters for checkpoint matching:
// a checkpoint written under different parameters must not be resumed.
func (o Options) fingerprint() string {
	fp := fmt.Sprintf("seed=%d runs=%d workloads=%d deploy=%d prob=%g mids=%v ways=%v",
		o.Seed, o.Runs, o.Workloads, o.DeployRuns, o.Prob, o.MIDs, o.CPWays)
	// Appended only when set so checkpoints written before the converged
	// protocol existed still match their (non-converged) campaigns.
	if o.Converge {
		fp += " converge=1"
	}
	return fp
}

// progressSink returns a serialised emitter for o.Progress (a no-op when
// Progress is unset), safe to call from concurrent campaign workers.
func (o Options) progressSink() func(string) {
	if o.Progress == nil {
		return func(string) {}
	}
	var mu sync.Mutex
	return func(line string) {
		mu.Lock()
		o.Progress(line)
		mu.Unlock()
	}
}

// campaignSeed derives a deterministic seed for a named campaign. The
// algorithm (runner.Seed) is pinned: statistical test assertions depend on
// the exact values it produces.
func campaignSeed(master uint64, name string) uint64 {
	return runner.Seed(master, name)
}

// PWCETResult is one MBPTA campaign outcome.
type PWCETResult struct {
	Bench  string
	Config string
	Runs   int
	PWCET  float64 // at Options.Prob
	Mean   float64 // mean observed execution time
	Max    float64 // high-water mark
	IID    mbpta.IIDReport
}

// pwcetFromTimes runs the MBPTA pipeline over a collected sample: check
// i.i.d., fit, extract the pWCET at prob.
func pwcetFromTimes(times []float64, name string, prob float64) (PWCETResult, error) {
	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: true})
	if err != nil {
		return PWCETResult{}, fmt.Errorf("experiments: MBPTA on %s: %w", name, err)
	}
	iid, err := mbpta.TestIID(times)
	if err != nil {
		return PWCETResult{}, err
	}
	var mean float64
	for _, t := range times {
		mean += t
	}
	mean /= float64(len(times))
	return PWCETResult{
		Runs:  len(times),
		PWCET: res.PWCET(prob),
		Mean:  mean,
		Max:   res.MaxSeen,
		IID:   iid,
	}, nil
}

// pooledPWCET runs the fixed-count MBPTA campaign for prog under cfg on a
// worker's platform pool: collect runs analysis-mode execution times, then
// fit. Pooled platforms give results bit-identical to fresh ones (pinned by
// sim's reuse tests) without per-campaign construction. The collected
// sample is returned alongside the fit so callers can feed it to the
// auditor's EVT cross-check.
func pooledPWCET(ctx context.Context, pool *sim.Pool, cfg sim.Config, prog *isa.Program, runs int, seed uint64, prob float64) (PWCETResult, []float64, error) {
	times, err := pool.CollectAnalysisTimes(ctx, cfg, prog, runs, seed)
	if err != nil {
		return PWCETResult{}, nil, err
	}
	res, err := pwcetFromTimes(times, prog.Name, prob)
	return res, times, err
}

// eflConfig returns the analysis configuration for EFL with the given MID.
func eflConfig(mid int64) sim.Config {
	return sim.DefaultConfig().WithEFL(mid).WithAnalysis(0)
}

// cpConfig returns the analysis configuration for CP with the analysed
// task given `ways` ways (co-runner slots are idle and unallocated).
func cpConfig(ways int) sim.Config {
	cfg := sim.DefaultConfig()
	parts := make([]int, cfg.Cores)
	parts[0] = ways
	return cfg.WithPartition(parts).WithAnalysis(0)
}

// campaign is a unit of parallel work.
type campaign struct {
	bench  bench.Spec
	config string
	cfg    sim.Config
}

// runCampaigns executes campaigns on the runner engine — each worker holds
// a platform pool — and returns results keyed by "BENCH/CONFIG".
func runCampaigns(opt Options, cs []campaign) (map[string]PWCETResult, error) {
	emit := opt.progressSink()
	out, err := runner.MapWithState(opt.context(), opt.runnerOptions(), opt.newPool, cs,
		func(ctx context.Context, pool *sim.Pool, _ int, c campaign) (PWCETResult, error) {
			key := c.bench.Code + "/" + c.config
			seed := campaignSeed(opt.Seed, key)
			var res PWCETResult
			var times []float64
			var err error
			if opt.Converge {
				res, times, err = pooledPWCETConverged(ctx, pool, opt, c.cfg, c.bench.Build(), seed)
			} else {
				res, times, err = pooledPWCET(ctx, pool, c.cfg, c.bench.Build(), opt.Runs, seed, opt.Prob)
			}
			if err != nil {
				return PWCETResult{}, fmt.Errorf("%s: %w", key, err)
			}
			opt.auditEVT(key, times)
			res.Bench = c.bench.Code
			res.Config = c.config
			emit(fmt.Sprintf("campaign %-12s pWCET=%.0f max=%.0f runs=%d",
				key, res.PWCET, res.Max, res.Runs))
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	results := make(map[string]PWCETResult, len(out))
	for _, r := range out {
		results[r.Bench+"/"+r.Config] = r
	}
	return results, nil
}
