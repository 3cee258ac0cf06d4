// Command experiments regenerates the paper's evaluation artefacts.
//
// Usage:
//
//	experiments -exp setup                 # §4.1 platform + benchmark table
//	experiments -exp iid  [-runs 300]      # §4.2 MBPTA compliance table
//	experiments -exp fig3 [-runs 300]      # Figure 3 (pWCET vs CP, normalised to CP2)
//	experiments -exp fig4 [-workloads 1024]# Figure 4 (wgIPC/waIPC S-curves)
//	experiments -exp eq1                   # ablation A1 (Equation 1)
//	experiments -exp fixedmid              # ablation A2 (randomised vs fixed MID)
//	experiments -exp lru                   # ablation A3 (TD vs TR platform)
//	experiments -exp wt                    # ablation A4 (DL1 write policy, footnote 5)
//	experiments -exp midsweep              # E6 extension: pWCET vs MID curve
//	experiments -exp convergence           # E7 extension: MBPTA convergence study
//	experiments -exp attrib                # per-core cycle-attribution breakdown
//	experiments -exp coherence             # shared-data MSI campaign (3-level hierarchy)
//	experiments -exp bench                 # performance regression suite
//	experiments -exp faultmatrix           # fault-injection detection matrix
//	experiments -exp all                   # everything, paper order
//
// Every result is routed through a schema-versioned JSON artifact: with
// -out DIR the artifact is persisted as DIR/<kind>.json, and what is
// printed is always rendered from the decoded artifact, never from
// in-memory state the artifact might not capture. Campaigns are
// deterministic in -seed and invariant under -parallel, so artifacts are
// byte-identical across worker counts.
//
// Figure 4 campaigns are resumable: with -out set, completed workloads are
// checkpointed to DIR/fig4.ckpt after every item, and Ctrl-C (SIGINT)
// stops the campaign cleanly. Rerunning with -resume (same seed and
// scales) continues where the campaign stopped and produces an artifact
// byte-identical to an uninterrupted run. The checkpoint is removed on
// success.
//
// Add -csv to also emit machine-readable output where available, -seed to
// change the master seed, and -v for per-campaign progress. The bench
// suite writes its JSON report to the -benchout path (BENCH_SIM.json by
// default) after gating against the committed -benchbaseline: any
// benchmark whose runs/sec regressed by more than -benchtol (default 10%)
// fails the command with a per-benchmark diff, and the baseline is left
// untouched. -cpuprofile/-memprofile write pprof profiles of whatever
// experiment ran, for the profiling workflow documented in the README.
//
// -converge switches MBPTA campaigns to convergence stopping: each run is
// seeded from its index and streams into an online block-maxima Gumbel
// fit that stops once the estimate is stable, with -runs as the ceiling.
// The sample is a different — equally valid — one than the fixed-count
// protocol's, which seeds the platform once and is sequentially defined.
// See DESIGN.md §12.
//
// -audit turns on the runtime soundness auditor: every simulation run is
// checked against the invariants in DESIGN.md §9 (exhaustive cycle
// attribution, memory reads under the UBD, MID-bounded eviction rates,
// EVT estimator agreement), the audit report is attached to every artifact
// and printed at the end, and any violation fails the command. Results are
// bit-identical with and without it. -metrics-addr HOST:PORT serves live
// campaign progress (completed/total jobs, ETA, per-worker throughput,
// and the audit counters when -audit is on) as JSON on /metrics.
//
// -exp faultmatrix (never part of "all": it deliberately injects faults)
// arms every hardware fault class from internal/fault against the
// soundness auditor and the hardened runner, and renders the detection
// matrix (DESIGN.md §10). The campaign runs fail-soft: jobs that hang or
// panic are recorded in the artifact's per-row status/error block instead
// of killing the campaign, failed simulators are quarantined, and -retries
// (default 1) bounds how often a failed job is re-run on fresh state.
// Exit codes: 0 all classes detected and nothing degraded, 1 a fault class
// escaped detection (or the fault-free control false-positived), 3 all
// classes detected but the campaign degraded — the expected outcome, since
// the hang and panic classes kill their jobs by design.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"efl/internal/artifact"
	"efl/internal/experiments"
	"efl/internal/metrics"
	"efl/internal/runner"
	"efl/internal/sim"
)

// auditor is the campaign soundness auditor (-audit). While it is set,
// emit attaches its report to every artifact written.
var auditor *sim.Auditor

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: setup|iid|fig3|fig4|eq1|fixedmid|lru|wt|midsweep|convergence|attrib|coherence|tracesweep|bench|all")
		runs      = flag.Int("runs", 300, "measurement runs per MBPTA campaign")
		workloads = flag.Int("workloads", 1024, "random workloads for Figure 4")
		deploy    = flag.Int("deployruns", 2, "deployment runs averaged per workload config")
		seed      = flag.Uint64("seed", 1, "master seed")
		mid       = flag.Int64("mid", 500, "MID for the iid/fixedmid experiments")
		csv       = flag.Bool("csv", false, "also print CSV output where available")
		verbose   = flag.Bool("v", false, "per-campaign progress on stderr")
		outDir    = flag.String("out", "", "directory for machine-readable JSON artifacts (empty: print only)")
		resume    = flag.Bool("resume", false, "resume an interrupted fig4 campaign from its checkpoint (requires -out)")
		parallel  = flag.Int("parallel", 0, "concurrent campaigns (default GOMAXPROCS)")
		benchout  = flag.String("benchout", "BENCH_SIM.json", "output path of the -exp bench JSON report")
		benchkern = flag.String("benchkernel", "CA", "kernel code the bench suite simulates")
		benchbase = flag.String("benchbaseline", "BENCH_SIM.json", "committed baseline the bench suite gates against (empty: no gate)")
		benchtol  = flag.Float64("benchtol", 0.10, "tolerated fractional runs/sec drop vs the bench baseline")
		converge  = flag.Bool("converge", false, "stop MBPTA campaigns when the streaming pWCET estimate converges (-runs becomes the ceiling)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memprof   = flag.String("memprofile", "", "write a heap profile to this path on exit")
		audit     = flag.Bool("audit", false, "check every run against the soundness invariants; violations fail the command")
		metricsAt = flag.String("metrics-addr", "", "serve live campaign progress as JSON on this HOST:PORT")
		retries   = flag.Int("retries", 1, "re-runs of a failed or panicked faultmatrix job on fresh state (watchdog kills are never retried)")
	)
	flag.Parse()

	if *resume && *outDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume requires -out (the checkpoint lives in the artifact directory)")
		os.Exit(2)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -memprofile: %v\n", err)
			}
		}()
	}

	// Ctrl-C cancels in-flight campaigns cleanly: checkpointed work
	// survives, artifacts are never left torn (atomic writes).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Seed:        *seed,
		Runs:        *runs,
		Workloads:   *workloads,
		DeployRuns:  *deploy,
		Parallelism: *parallel,
		Retries:     *retries,
		Converge:    *converge,
		Ctx:         ctx,
	}
	if *verbose {
		opt.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	if *audit {
		auditor = sim.NewAuditor()
		opt.Audit = auditor
	}

	// shutdownMetrics gracefully drains the live-metrics server. It must be
	// an explicit call, not only a defer: the interrupted (exit 130) and
	// degraded (exit 3) paths leave through os.Exit, which skips defers.
	shutdownMetrics := func() {}
	var tracker *metrics.CampaignTracker
	if *metricsAt != "" {
		tracker = metrics.NewCampaignTracker()
		srv, bound, err := metrics.Serve(*metricsAt, func() any {
			s := struct {
				Campaign metrics.CampaignSnapshot `json:"campaign"`
				Audit    *sim.AuditReport         `json:"audit,omitempty"`
			}{Campaign: tracker.Snapshot()}
			if auditor != nil {
				rep := auditor.Report()
				s.Audit = &rep
			}
			return s
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		shutdownMetrics = func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				srv.Close()
			}
		}
		defer shutdownMetrics()
		fmt.Fprintf(os.Stderr, "[live metrics at http://%s/metrics]\n", bound)
		opt.OnProgress = func(p runner.Progress) {
			tracker.JobDone(p.Worker, p.Done, p.Total, p.Elapsed, p.Remaining)
		}
	}

	run := func(name string, f func() error) {
		if tracker != nil {
			tracker.Begin(name)
		}
		start := time.Now()
		if err := f(); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted", name)
				if name == "fig4" && *outDir != "" {
					fmt.Fprintf(os.Stderr, " — resume with: -exp fig4 -resume -out %s (same seed and scales)", *outDir)
				}
				fmt.Fprintln(os.Stderr)
				shutdownMetrics()
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *exp == name || *exp == "all" }

	if want("setup") {
		run("setup", func() error {
			text, err := experiments.RenderSetup(sim.DefaultConfig())
			if err != nil {
				return err
			}
			fmt.Println(text)
			return nil
		})
	}
	if want("iid") {
		run("iid", func() error {
			res, err := experiments.IIDTable(opt, *mid)
			if err != nil {
				return err
			}
			return emit(*outDir, "iid", *seed, *res, func(r experiments.IIDResult) string {
				return r.Render()
			})
		})
	}
	if want("fig3") {
		run("fig3", func() error {
			res, err := experiments.Figure3(opt)
			if err != nil {
				return err
			}
			return emit(*outDir, "fig3", *seed, *res, func(r experiments.Fig3Result) string {
				out := r.Render()
				if *csv {
					out += "\n" + r.CSV()
				}
				return out
			})
		})
	}
	if want("fig4") {
		run("fig4", func() error {
			fopt := opt
			if *outDir != "" {
				ckPath := filepath.Join(*outDir, "fig4.ckpt")
				if !*resume {
					// A fresh campaign must not pick up a stale checkpoint.
					os.Remove(ckPath)
				}
				fopt.Checkpoint = ckPath
			}
			res, err := experiments.Figure4(fopt)
			if err != nil {
				return err
			}
			if fopt.Checkpoint != "" {
				os.Remove(fopt.Checkpoint)
			}
			return emit(*outDir, "fig4", *seed, *res, func(r experiments.Fig4Result) string {
				out := r.Render() + "\n" + r.RenderCurves(72, 14)
				if *csv {
					out += "\n" + r.CurveCSV()
				}
				return out
			})
		})
	}
	if want("eq1") {
		run("eq1", func() error {
			points, err := experiments.AblationEq1(*seed, 20000, []int{1, 2, 4, 8, 16, 32, 64, 128})
			if err != nil {
				return err
			}
			return emit(*outDir, "eq1", *seed, points, experiments.RenderEq1)
		})
	}
	if want("fixedmid") {
		run("fixedmid", func() error {
			rows, err := experiments.AblationFixedMID(opt, *mid)
			if err != nil {
				return err
			}
			return emit(*outDir, "fixedmid", *seed, rows, func(rs []experiments.FixedMIDRow) string {
				return experiments.RenderFixedMID(rs, *mid)
			})
		})
	}
	if want("convergence") {
		run("convergence", func() error {
			res, err := experiments.ConvergenceStudy(opt, *mid, nil,
				[]string{"ID", "CN", "CA", "II", "PN", "A2"})
			if err != nil {
				return err
			}
			return emit(*outDir, "convergence", *seed, *res, func(r experiments.ConvergenceResult) string {
				return r.Render()
			})
		})
	}
	if want("midsweep") {
		run("midsweep", func() error {
			res, err := experiments.MIDSweep(opt, nil)
			if err != nil {
				return err
			}
			return emit(*outDir, "midsweep", *seed, *res, func(r experiments.MIDSweepResult) string {
				out := r.Render()
				if *csv {
					out += "\n" + r.CSV()
				}
				return out
			})
		})
	}
	if want("wt") {
		run("wt", func() error {
			rows, err := experiments.AblationWriteThrough(opt, *mid, []string{"CA", "PU", "RS", "A2"})
			if err != nil {
				return err
			}
			return emit(*outDir, "wt", *seed, rows, func(rs []experiments.WTRow) string {
				return experiments.RenderWriteThrough(rs, *mid)
			})
		})
	}
	if want("attrib") {
		run("attrib", func() error {
			res, err := experiments.Attribution(opt, *mid, nil)
			if err != nil {
				return err
			}
			return emit(*outDir, "attrib", *seed, *res, func(r experiments.AttributionResult) string {
				return r.Render()
			})
		})
	}
	if want("lru") {
		run("lru", func() error {
			rows, err := experiments.AblationLRU(opt, []string{"ID", "CA", "PN", "A2"})
			if err != nil {
				return err
			}
			return emit(*outDir, "lru", *seed, rows, func(rs []experiments.LRURow) string {
				return experiments.RenderLRU(rs)
			})
		})
	}
	// The coherence campaign only runs when asked for explicitly: the
	// shared-data MSI platform is an extension, not one of the paper's
	// artefacts.
	if *exp == "coherence" {
		run("coherence", func() error {
			res, err := experiments.Coherence(opt, *mid)
			if err != nil {
				return err
			}
			if err := emit(*outDir, "coherence", *seed, *res, func(r experiments.CoherenceResult) string {
				return r.Render()
			}); err != nil {
				return err
			}
			if !res.AllSound {
				return errors.New("coherence campaign recorded an invariant violation")
			}
			return nil
		})
	}
	// The trace sweep only runs when asked for explicitly: synthetic traced
	// workloads exercise the ingestion pipeline (DESIGN.md §16), not one of
	// the paper's artefacts.
	if *exp == "tracesweep" {
		run("tracesweep", func() error {
			res, err := experiments.Tracesweep(opt, *mid)
			if err != nil {
				return err
			}
			if err := emit(*outDir, "tracesweep", *seed, *res, func(r experiments.TracesweepResult) string {
				return r.Render()
			}); err != nil {
				return err
			}
			if !res.AllSound {
				return errors.New("tracesweep campaign recorded an invariant violation")
			}
			return nil
		})
	}
	// The fault-injection detection matrix only runs when asked for
	// explicitly ("all" regenerates the paper artefacts; a campaign that
	// deliberately breaks the simulated hardware is not one of them).
	degraded := false
	if *exp == "faultmatrix" {
		run("faultmatrix", func() error {
			res, err := experiments.FaultMatrix(opt)
			if err != nil {
				return err
			}
			if err := emit(*outDir, "faultmatrix", *seed, *res, func(r experiments.FaultMatrixResult) string {
				return r.Render()
			}); err != nil {
				return err
			}
			// The artifact is already persisted and printed: a detection gap
			// now fails the command, a degraded-but-fully-detected campaign
			// exits with the distinct degraded code after the audit block.
			if !res.AllDetected {
				return errors.New("detection gap: a fault class escaped every invariant and watchdog (or the control false-positived)")
			}
			degraded = res.Degraded
			return nil
		})
	}
	// The bench suite only runs when asked for explicitly ("all" regenerates
	// the paper artefacts; a perf report is not one of them).
	if *exp == "bench" {
		run("bench", func() error {
			report, err := experiments.BenchSuite(opt, *benchkern, *mid)
			if err != nil {
				return err
			}
			if err := emit(*outDir, "bench", *seed, *report, func(r experiments.BenchReport) string {
				return r.Render()
			}); err != nil {
				return err
			}
			// Regression gate BEFORE the report overwrites the baseline: a
			// regressed run must fail loudly, not quietly ratchet the
			// committed numbers down.
			if *benchbase != "" {
				if baseline, err := experiments.LoadBenchReport(*benchbase); err == nil {
					if err := experiments.CompareBaseline(baseline, report, *benchtol); err != nil {
						return err
					}
					fmt.Fprintf(os.Stderr, "[bench gate passed vs %s (tolerance %.0f%%)]\n", *benchbase, *benchtol*100)
				} else if os.IsNotExist(err) {
					fmt.Fprintf(os.Stderr, "[no bench baseline at %s — gate skipped]\n", *benchbase)
				} else {
					return err
				}
			}
			data, err := report.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*benchout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "[bench report written to %s]\n", *benchout)
			return nil
		})
	}
	switch *exp {
	case "setup", "iid", "fig3", "fig4", "eq1", "fixedmid", "wt", "lru", "midsweep", "convergence", "attrib", "coherence", "tracesweep", "bench", "faultmatrix", "all":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -exp %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	if auditor != nil {
		fmt.Println(experiments.RenderAudit(auditor.Report()))
		if err := auditor.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if degraded {
		// Every fault class was detected but some jobs died (by design for
		// the hang and panic classes): the artifact is complete and decodable,
		// the exit code tells automation this was a degraded run.
		fmt.Fprintln(os.Stderr, "experiments: campaign degraded (failed jobs recorded in artifact)")
		shutdownMetrics()
		os.Exit(exitDegraded)
	}
}

// exitDegraded is the exit code of a campaign that completed and produced
// its artifact but recorded failed jobs (graceful degradation). Distinct
// from 1 (hard failure / detection gap) and 130 (interrupted).
const exitDegraded = 3

// emit routes a result through its artifact: encode canonically, persist
// to outDir/<kind>.json when outDir is set, decode into a fresh value and
// render from the decoded copy — so the printed tables always reflect
// exactly what the artifact holds. Under -audit the auditor's report so
// far rides along in the envelope's audit block.
func emit[T any](outDir, kind string, seed uint64, payload T, render func(T) string) error {
	var auditRep any
	if auditor != nil {
		auditRep = auditor.Report()
	}
	data, err := artifact.EncodeWithAudit(kind, seed, payload, auditRep)
	if err != nil {
		return err
	}
	if outDir != "" {
		path := filepath.Join(outDir, kind+".json")
		if err := artifact.WriteFile(path, data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "[artifact written to %s]\n", path)
	}
	var decoded T
	if _, err := artifact.Decode(data, kind, &decoded); err != nil {
		return err
	}
	fmt.Println(render(decoded))
	return nil
}
