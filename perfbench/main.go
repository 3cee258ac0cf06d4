// Command perfbench is the repository's benchmark: three closed-loop
// workloads (estimate-cold, estimate-warm, deploy-mix), each checked
// against recorded reference outputs, with a traced mode that reports
// per-layer figures. See README.md.
//
//	perfbench --workload deploy-mix --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// env is one invocation's settings.
type env struct {
	workload string
	seed     uint64
	seconds  int
	refDir   string
	outDir   string
	// smoke shrinks every workload to a handful of operations, two
	// timing rounds and one set-up where the rounds share it (tests
	// only; figures are meaningless).
	smoke bool
}

// workloadImpl is what each workload provides to run.
type workloadImpl interface {
	// setup builds everything the timed phase needs; run reports
	// the median time of setupReps set-ups (fewer when a run has fewer
	// rounds, one per round when each round needs a fresh set-up).
	setup() error
	close()
	// timing is how many rounds a run times its sequence for the given
	// budget, and whether each round needs a fresh set-up (estimate-cold
	// must miss the cache again).
	timing(seconds int) (rounds int, fresh bool)
	// pass runs the measured sequence once, untraced, through the same
	// interface a user drives, recording one tally entry per operation
	// in sequence order.
	pass(t *tally, d *runDigest) error
	// tracedPass repeats the sequence with spans around the layer calls
	// and returns the per-layer metrics it measured.
	tracedPass(tr *tracer, t *tally) (map[string]metric, error)
	// simInstr is the simulated instructions one pass retired (0
	// when the timed phase simulates nothing).
	simInstr() float64
	// suite returns the workload's programs for the layer suite.
	suite() []namedProg
}

// setupReps is how many set-ups a run times when its rounds can share one.
const setupReps = 5

func newWorkload(e *env) (workloadImpl, error) {
	refs, err := loadRefs(e.refDir, e.workload)
	if err != nil {
		return nil, err
	}
	switch e.workload {
	case "estimate-cold":
		return &cold{e: e, refs: refs}, nil
	case "estimate-warm":
		return &warm{e: e, refs: refs}, nil
	case "deploy-mix":
		return &deploy{e: e, refs: refs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want estimate-cold, estimate-warm or deploy-mix)", e.workload)
}

func main() {
	var e env
	var trace int
	var regen bool
	flag.StringVar(&e.workload, "workload", "", "estimate-cold, estimate-warm or deploy-mix")
	flag.Uint64Var(&e.seed, "seed", 1, "workload seed (default 1; 7919 is the held-out seed for checking claims)")
	flag.IntVar(&e.seconds, "seconds", 10, "work budget: the fixed operation count is derived from it")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&e.refDir, "refs", "perfbench/refs", "reference-output directory")
	flag.StringVar(&e.outDir, "out", "perfbench/out", "directory for the traced run's span file and table")
	flag.BoolVar(&regen, "regen", false, "record the reference tables for -workload (or all) and exit")
	flag.Parse()
	if regen {
		if err := regenerate(e.refDir, e.workload); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if e.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(&e, trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one workload invocation and returns its result.
func run(e *env, traced bool) (*result, error) {
	fmt.Println(hostLine(e.refDir))
	w, err := newWorkload(e)
	if err != nil {
		return nil, err
	}
	// A run times its sequence in rounds; an operation's latency is its
	// fastest round (bestOf).
	rounds, fresh := w.timing(e.seconds)
	reps := setupReps
	if e.smoke {
		rounds, reps = 2, 1
	}
	var setupTimes, walls []float64
	setUp := func() error {
		t0 := time.Now()
		err := w.setup()
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		return nil
	}
	// The set-ups are spread between the rounds, so the rounds span more
	// of the run and are less likely all to fall in one slow stretch of
	// the host (see bestOf).
	setups := min(reps, rounds)
	if fresh {
		setups = rounds
	}
	var tallies []tally
	var d runDigest
	for i := 0; i < rounds; i++ {
		if i == 0 || i*setups/rounds != (i-1)*setups/rounds {
			if i > 0 {
				w.close()
				// Release the closed set-up's memory so the next
				// set-up's peak resident set is its own.
				debug.FreeOSMemory()
			}
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		var t tally
		t0 := time.Now()
		err := w.pass(&t, &d)
		walls = append(walls, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, err
		}
		tallies = append(tallies, t)
	}
	w.close()
	best, attempted, failed, errs := bestOf(tallies)
	lat := succeeded(best)
	busy := sum(lat)
	ms := millis(lat)
	e2e := map[string]metric{
		"setup_s":     {median(setupTimes), "s"},
		"peak_rss_mb": {peakRSSMB(), "MiB"},
		"ops_per_s":   {float64(len(lat)) / busy.Seconds(), "1/s"},
		"op_p50_ms":   {quantile(ms, 0.50), "ms"},
		"op_p90_ms":   {quantile(ms, 0.90), "ms"},
	}
	fmt.Printf("workload %s seed %d: %d rounds, %d attempted, %d succeeded, %d failed; output digest %s\n",
		e.workload, e.seed, rounds, attempted, attempted-failed, failed, d.String())
	for _, msg := range errs {
		fmt.Println("  failure:", msg)
	}
	if n := len(lat); n > 0 {
		fmt.Printf("  operations %d, each timed %d times (%d beyond p90); round walls %.2f s; %d set-ups\n",
			n, rounds, n-int(math.Ceil(0.9*float64(n))), walls, len(setupTimes))
	}
	printTable("end-to-end metrics", e2e)
	if wc, ok := w.(interface {
		classes(best []time.Duration) map[string]metric
	}); ok {
		printTable(e.workload+" operation classes", wc.classes(best))
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: e2e}
	if !traced {
		return res, nil
	}

	// The traced pass starts from a fresh set-up, so it repeats the
	// untraced rounds' work (estimate-cold must miss the cache again).
	err = w.setup()
	defer w.close()
	if err != nil {
		return nil, fmt.Errorf("set-up for the traced pass: %w", err)
	}
	tr := newTracer()
	var tt tally
	t1 := time.Now()
	layer, err := w.tracedPass(tr, &tt)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	tracedWall := time.Since(t1)
	suiteMetrics, err := layerSuite(tr, w.suite(), e.smoke)
	if err != nil {
		return nil, fmt.Errorf("layer suite: %w", err)
	}
	for name, m := range suiteMetrics {
		if _, ok := layer[name]; !ok {
			layer[name] = m
		}
	}
	if ins := w.simInstr(); ins > 0 {
		layer["sim.minstr_per_s"] = metric{ins / 1e6 / busy.Seconds(), "Minstr/s"}
	}
	layer["trace.overhead_ratio"] = metric{tracedWall.Seconds() / median(walls), "ratio"}
	if missing := missingLayerMetrics(layer); len(missing) > 0 {
		return nil, fmt.Errorf("traced run did not produce %v", missing)
	}
	nestErr := tr.checkNesting()
	if err := writeTraceOutputs(e, tr, layer); err != nil {
		return nil, err
	}
	printTable("per-layer metrics", layer)
	fmt.Printf("traced pass: %d attempted, %d failed\n", tt.attempted, tt.failed)
	for _, msg := range tt.errs {
		fmt.Println("  failure:", msg)
	}
	if nestErr != nil {
		fmt.Println("  span check failed:", nestErr)
	}
	res.Attempted += tt.attempted
	res.Failed += tt.failed
	res.Correct = res.Failed == 0 && nestErr == nil
	res.Metrics = layer
	return res, nil
}

// writeTraceOutputs writes the span file and the self-time table.
func writeTraceOutputs(e *env, tr *tracer, layer map[string]metric) error {
	base := filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d", e.workload, e.seed))
	if err := tr.writeChrome(base + ".trace.json"); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	names := make([]string, 0, len(layer))
	for n := range layer {
		names = append(names, n)
	}
	sort.Strings(names)
	tab := tr.table() + "\nper-layer metrics\n"
	for _, n := range names {
		tab += fmt.Sprintf("  %-32s %14.4f %s\n", n, layer[n].Value, layer[n].Unit)
	}
	if err := os.WriteFile(base+".layers.txt", []byte(tab), 0o644); err != nil {
		return fmt.Errorf("layer table: %w", err)
	}
	fmt.Printf("span file %s.trace.json, self-time table %s.layers.txt\n", base, base)
	fmt.Print(tr.table())
	return nil
}
