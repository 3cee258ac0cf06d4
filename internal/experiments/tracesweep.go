package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"efl/internal/isa"
	"efl/internal/runner"
	"efl/internal/sim"
	"efl/internal/trace"
	"efl/internal/workload"
)

// The tracesweep campaign (-exp tracesweep): a grid of synthetic
// memory-access traces spanning the axes that drive shared-cache
// behaviour — locality (hot set fits the LLC), footprint (streams past
// it), sharing (a coherent cross-core window) and stride (spatial
// density) — each generated deterministically, replayed into programs
// through internal/workload, and pushed through the full pipeline: an
// analysis-mode MBPTA fit on the observed core plus audited deployment
// runs (A1-A3 always, A5 on the sharing scenarios). The campaign is the
// evidence that traced workloads are first-class: content-addressed
// inputs reach the same estimator, the same invariants, the same
// artifacts as the built-in benchmarks.

// TracesweepScenario is one grid point: a per-core GenSpec template
// (Seed and Name are filled per core by the campaign).
type TracesweepScenario struct {
	Name string           `json:"name"`
	Spec workload.GenSpec `json:"spec"`
}

// tracesweepGrid is the campaign's scenario grid. Records and gaps are
// sized so a full per-core replay stays far inside the dynamic budget
// while still cycling the generator through every address regime.
func tracesweepGrid() []TracesweepScenario {
	return []TracesweepScenario{
		// Hot set fits every level: locality keeps the EFL fetch count low.
		{Name: "hot-fit", Spec: workload.GenSpec{
			Records: 2000, FootprintBytes: 8 * 1024, Locality: 0.9,
			HotBytes: 2048, StoreFrac: 0.3, MeanGap: 2,
		}},
		// Pure streaming past the LLC: every access marches the cursor.
		{Name: "stream-llc", Spec: workload.GenSpec{
			Records: 2000, FootprintBytes: 256 * 1024, Locality: 0,
			StrideBytes: 64, StoreFrac: 0.1, MeanGap: 1,
		}},
		// A coherent shared window under write pressure: the MSI layer and
		// invariant A5 are on for this row.
		{Name: "shared-mix", Spec: workload.GenSpec{
			Records: 2000, FootprintBytes: 32 * 1024, SharedBytes: 4096,
			SharedFrac: 0.3, Locality: 0.7, StoreFrac: 0.4, MeanGap: 2,
		}},
		// Wide strides: spatially sparse, set-conflict heavy.
		{Name: "stride-wide", Spec: workload.GenSpec{
			Records: 2000, FootprintBytes: 64 * 1024, Locality: 0.25,
			StrideBytes: 256, StoreFrac: 0.2, MeanGap: 3,
		}},
	}
}

// TracesweepRow is one scenario's campaign outcome.
type TracesweepRow struct {
	Name string `json:"name"`
	// TraceHash is the observed core's trace content address (SHA-256 of
	// its bytes) — the same identity POST /v1/trace would assign it.
	TraceHash string `json:"trace_hash"`
	// Records and ReplayInstr describe the observed core's trace.
	Records     uint64 `json:"records"`
	ReplayInstr uint64 `json:"replay_instr"`
	SharedBytes int    `json:"shared_bytes"`
	// AnalysisRuns and the fit: pWCET at Options.Prob, sample mean, max.
	AnalysisRuns int     `json:"analysis_runs"`
	PWCET        float64 `json:"pwcet"`
	Mean         float64 `json:"mean"`
	Max          float64 `json:"max"`
	// DeployRuns audited all-core deployment runs; MeanCycles is their
	// mean makespan (slowest core).
	DeployRuns int     `json:"deploy_runs"`
	MeanCycles float64 `json:"mean_cycles"`
	// Invariants is the scenario's private audit report.
	Invariants map[string]sim.InvariantReport `json:"invariants,omitempty"`
	// A3Holds: the EFL eviction-rate bound held on every audited run.
	// A5Holds: the MSI protocol stayed sound (sharing scenarios only;
	// true and meaningless when Shared is false).
	A3Holds bool `json:"a3_holds"`
	A5Holds bool `json:"a5_holds"`
	Shared  bool `json:"shared"`
}

// TracesweepResult is the -exp tracesweep artifact payload.
type TracesweepResult struct {
	Opt  Options         `json:"opt"`
	MID  int64           `json:"mid"`
	Rows []TracesweepRow `json:"rows"`
	// AllSound: every audited invariant held on every run of every
	// scenario.
	AllSound bool `json:"all_sound"`
}

// tracesweepAnalysisRuns bounds the MBPTA sample per scenario: at least
// enough for a stable tail fit, capped so the sweep stays a smoke-sized
// campaign even under the default -runs 300.
func tracesweepAnalysisRuns(opt Options) int {
	runs := opt.Runs
	if runs < 30 {
		runs = 30
	}
	if runs > 300 {
		runs = 300
	}
	return runs
}

// tracesweepDeployRuns bounds the audited deployment runs per scenario.
func tracesweepDeployRuns(opt Options) int {
	runs := opt.Runs
	if runs > 6 {
		runs = 6
	}
	if runs < 2 {
		runs = 2
	}
	return runs
}

// Tracesweep runs the synthetic-trace scenario sweep.
func Tracesweep(opt Options, mid int64) (*TracesweepResult, error) {
	opt = opt.withDefaults()
	emit := opt.progressSink()

	rows, err := runner.MapWithState(opt.context(), opt.runnerOptions(), opt.newPool, tracesweepGrid(),
		func(ctx context.Context, pool *sim.Pool, _ int, sc TracesweepScenario) (TracesweepRow, error) {
			row, err := runTracesweepScenario(ctx, opt, pool, sc, mid)
			if err == nil {
				emit(fmt.Sprintf("tracesweep %-11s pWCET=%.0f max=%.0f runs=%d a3=%v a5=%v",
					sc.Name, row.PWCET, row.Max, row.AnalysisRuns, row.A3Holds, row.A5Holds))
			}
			return row, err
		})
	if err != nil {
		return nil, err
	}

	res := &TracesweepResult{Opt: opt, MID: mid, Rows: rows, AllSound: true}
	for _, row := range rows {
		for _, iv := range row.Invariants {
			if iv.Violations > 0 {
				res.AllSound = false
			}
		}
	}
	return res, nil
}

// runTracesweepScenario generates, replays, fits and audits one grid
// point: per-core traces with per-core derived seeds, an analysis-mode
// MBPTA campaign on core 0's replay, then audited all-core deployment
// runs (with the coherence trace and A5 on sharing scenarios).
func runTracesweepScenario(ctx context.Context, opt Options, pool *sim.Pool, sc TracesweepScenario, mid int64) (TracesweepRow, error) {
	row := TracesweepRow{Name: sc.Name, SharedBytes: sc.Spec.SharedBytes, Shared: sc.Spec.SharedBytes > 0}
	cfg := sim.DefaultConfig()
	if mid > 0 {
		cfg = cfg.WithEFL(mid)
	}
	cfg.SharedDataBytes = sc.Spec.SharedBytes

	progs := make([]*isa.Program, cfg.Cores)
	for i := range progs {
		spec := sc.Spec
		spec.Name = fmt.Sprintf("%s/core%d", sc.Name, i)
		spec.Seed = campaignSeed(opt.Seed, fmt.Sprintf("tracesweep/%s/core%d", sc.Name, i))
		data, err := spec.Generate()
		if err != nil {
			return row, fmt.Errorf("%s: %w", spec.Name, err)
		}
		meta, err := workload.Validate(data)
		if err != nil {
			return row, fmt.Errorf("%s: generated trace rejected: %w", spec.Name, err)
		}
		prog, err := workload.Replay(spec.Name, data)
		if err != nil {
			return row, fmt.Errorf("%s: %w", spec.Name, err)
		}
		progs[i] = prog
		if i == 0 {
			sum := sha256.Sum256(data)
			row.TraceHash = hex.EncodeToString(sum[:])
			row.Records = meta.Records
			row.ReplayInstr = meta.ReplayInstr
		}
	}

	// Analysis-mode MBPTA on the observed core, co-runners idle — the
	// estimation protocol a trace_hash request runs through the service.
	aseed := campaignSeed(opt.Seed, "tracesweep/"+sc.Name+"/analysis")
	runs := tracesweepAnalysisRuns(opt)
	fit, times, err := pooledPWCET(ctx, pool, cfg, progs[0], sim.EstimateSpec{Runs: runs, Seed: aseed, Prob: opt.Prob})
	if err != nil {
		return row, fmt.Errorf("%s: %w", sc.Name, err)
	}
	opt.auditEVT("tracesweep/"+sc.Name, times)
	row.AnalysisRuns, row.PWCET, row.Mean, row.Max = fit.Runs, fit.PWCET, fit.Mean, fit.Max

	// Audited deployment runs: all cores replay their traces together.
	aud := sim.NewAuditor()
	var buf *trace.Buffer
	if row.Shared {
		buf = trace.NewBuffer(1<<20).Keep(
			trace.EvCohFetch, trace.EvCohUpgrade, trace.EvCohInval, trace.EvCohHit)
	}
	dseed := campaignSeed(opt.Seed, "tracesweep/"+sc.Name+"/deploy")
	var res sim.Result
	for i := 0; i < tracesweepDeployRuns(opt); i++ {
		if err := ctx.Err(); err != nil {
			return row, err
		}
		m, err := pool.Get(cfg, progs, dseed+uint64(i))
		if err != nil {
			return row, err
		}
		if buf != nil {
			buf.Reset()
			m.SetTracer(buf)
		}
		err = m.RunInto(&res)
		m.SetTracer(nil)
		if err != nil {
			return row, fmt.Errorf("%s deploy run %d: %w", sc.Name, i, err)
		}
		// Both auditors see every run: the private one carries the row's
		// verdicts, the campaign-global one (-audit) gates the command.
		if err := pool.AuditRun(cfg, &res); err != nil {
			return row, err
		}
		_ = aud.CheckRun(cfg, &res)
		if buf != nil {
			_ = aud.CheckCoherence(cfg, buf.Events())
			_ = opt.Audit.CheckCoherence(cfg, buf.Events())
		}
		row.MeanCycles += float64(res.TotalCycles)
		row.DeployRuns++
	}
	row.MeanCycles /= float64(row.DeployRuns)

	rep := aud.Report()
	row.Invariants = rep.Invariants
	a3 := rep.Invariants[sim.AuditEvictionRate]
	row.A3Holds = a3.Checks > 0 && a3.Violations == 0
	if row.Shared {
		a5 := rep.Invariants[sim.AuditCoherence]
		row.A5Holds = a5.Checks > 0 && a5.Violations == 0
	} else {
		row.A5Holds = true
	}
	return row, nil
}

// Render prints the tracesweep report.
func (r *TracesweepResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Trace sweep: synthetic workload grid replayed under EFL MID=%d (%d analysis + %d audited deployment runs per scenario)\n",
		r.MID, tracesweepAnalysisRuns(r.Opt), tracesweepDeployRuns(r.Opt))
	fmt.Fprintf(&sb, "%-12s %-14s %7s %9s %7s %12s %12s %12s %12s %4s %4s\n",
		"scenario", "trace", "recs", "replay-in", "shared", "pWCET", "mean", "max", "mean deploy", "A3", "A5")
	for _, row := range r.Rows {
		a5 := "-"
		if row.Shared {
			a5 = mark(row.A5Holds)
		}
		fmt.Fprintf(&sb, "%-12s %-14s %7d %9d %7d %12.0f %12.0f %12.0f %12.0f %4s %4s\n",
			row.Name, row.TraceHash[:12]+"..", row.Records, row.ReplayInstr, row.SharedBytes,
			row.PWCET, row.Mean, row.Max, row.MeanCycles,
			mark(row.A3Holds), a5)
	}
	sb.WriteString("\n")
	if r.AllSound {
		sb.WriteString("all audited invariants held on every run of every traced scenario\n")
	} else {
		sb.WriteString("AUDIT VIOLATION: at least one invariant failed; see the per-scenario reports in the artifact\n")
	}
	return sb.String()
}
