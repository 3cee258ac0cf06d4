package sim

import (
	"context"
	"reflect"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
)

// analysisConfigs is the configuration matrix the Rewind/stream
// equivalence tests sweep: the paper platform under EFL, fixed-MID EFL,
// way partitioning, the time-deterministic ablation and write-through
// DL1s.
func analysisConfigs() map[string]Config {
	td := DefaultConfig().WithEFL(500)
	td.Policy = cache.TimeDeterministic
	wt := DefaultConfig().WithEFL(500)
	wt.DL1WriteThrough = true
	wta := DefaultConfig().WithEFL(500)
	wta.DL1WriteThrough = true
	wta.WTAllocate = true
	return map[string]Config{
		"efl500":   DefaultConfig().WithEFL(500),
		"efl250":   DefaultConfig().WithEFL(250),
		"fixedMID": fixedMIDConfig(),
		"cp2":      DefaultConfig().WithPartition([]int{2, 2, 2, 2}),
		"td":       td,
		"wt":       wt,
		"wtalloc":  wta,
	}
}

func fixedMIDConfig() Config {
	cfg := DefaultConfig().WithEFL(500)
	cfg.EFLFixedMID = true
	return cfg
}

// freshAnalysis is the independent reference for the analysis shortcuts:
// one run of a freshly constructed platform on core 0 that interprets
// prog in lockstep, through the reference loop.
func freshAnalysis(t testing.TB, cfg Config, prog *isa.Program, seed uint64) *Result {
	t.Helper()
	cfg = cfg.WithAnalysis(0)
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = prog
	m, err := New(cfg, progs, seed)
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	if err := referenceRun(m, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// checkStream streams len(seeds) runs of prog under cfg (run i seeded
// seeds[i]) through a fresh audited pool and compares them with the
// reference results: the streamed times run for run, then every run in
// full on the pool's replaying platform, rewound to the same seed the way
// the stream rewinds it. Returns the pool for further checks.
func checkStream(t *testing.T, cfg Config, prog *isa.Program, seeds []uint64, ref func(seed uint64) *Result) *Pool {
	t.Helper()
	pool := NewPool()
	aud := NewAuditor()
	pool.SetAuditor(aud)
	var times []float64
	n, err := pool.StreamAnalysisTimes(context.Background(), cfg, prog, 0, len(seeds),
		func(i int) uint64 { return seeds[i] },
		func(v float64) bool { times = append(times, v); return false })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(seeds) || len(times) != len(seeds) {
		t.Fatalf("stream consumed %d runs (%d times), want %d", n, len(times), len(seeds))
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("auditor: %v", err)
	}
	if got := aud.Report().Runs; got != int64(len(seeds)) {
		t.Fatalf("auditor checked %d runs, stream consumed %d", got, len(seeds))
	}
	m, err := pool.analysisPlatform(cfg.WithAnalysis(0), prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	for i, seed := range seeds {
		want := ref(seed)
		if times[i] != float64(want.PerCore[0].Cycles) {
			t.Fatalf("run %d (seed %d): streamed time %v, reference %d", i, seed, times[i], want.PerCore[0].Cycles)
		}
		m.Rewind(seed)
		if err := m.RunInto(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, *want) {
			t.Fatalf("run %d (seed %d) diverged:\n got %s\nwant %s",
				i, seed, goldenFingerprint(&got), goldenFingerprint(want))
		}
	}
	return pool
}

// TestRewindMatchesFresh pins Rewind's contract: a rewound platform is
// bit-identical to a freshly constructed one under the same seed, across
// the config matrix and across multiple rewinds (including rewinding away
// from a different seed's state).
func TestRewindMatchesFresh(t *testing.T) {
	prog := goldenProg()
	for name, base := range analysisConfigs() {
		cfg := base.WithAnalysis(0)
		t.Run(name, func(t *testing.T) {
			progs := make([]*isa.Program, cfg.Cores)
			progs[0] = prog
			reused, err := New(cfg, progs, 999)
			if err != nil {
				t.Fatal(err)
			}
			var got, want Result
			for _, seed := range []uint64{1, 7, 1} {
				fresh, err := New(cfg, progs, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := fresh.RunInto(&want); err != nil {
					t.Fatal(err)
				}
				reused.Rewind(seed)
				if err := reused.RunInto(&got); err != nil {
					t.Fatal(err)
				}
				if gf, wf := goldenFingerprint(&got), goldenFingerprint(&want); gf != wf {
					t.Fatalf("seed %d: rewound run diverged:\n got %s\nwant %s", seed, gf, wf)
				}
			}
		})
	}
}

// TestStreamGoldenAllKernels is the all-kernel golden test of the fast
// path: for every bench kernel (base set and extended set) under the
// paper's EFL analysis configuration, the stream — trace replay and
// per-run rewind — reproduces fresh interpreted runs.
func TestStreamGoldenAllKernels(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	specs := bench.AllWithExtended()
	if len(specs) < 14 {
		t.Fatalf("expected >= 14 bench kernels, have %d", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Code, func(t *testing.T) {
			prog := spec.Build()
			pool := checkStream(t, cfg, prog, []uint64{1, 2}, func(seed uint64) *Result {
				return freshAnalysis(t, cfg, prog, seed)
			})
			if tr, ok := pool.pooledTrace(prog, cfg.LineBytes); !ok || tr == nil {
				t.Fatalf("kernel %s did not record a replay trace", spec.Code)
			}
		})
	}
}

// TestBatchLockstepProperty is the stream property test: run i of a
// stream is exactly a fresh lockstep analysis run (freshAnalysis) under
// seedFor(i) — across the config matrix, with the auditor's invariants
// holding on every run. Its name predates the stream; "lockstep" now names
// the reference loop that freshAnalysis runs.
func TestBatchLockstepProperty(t *testing.T) {
	prog := bench.CANRdr()
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(1000 + 37*i)
	}
	for name, base := range analysisConfigs() {
		base := base
		t.Run(name, func(t *testing.T) {
			checkStream(t, base, prog, seeds, func(seed uint64) *Result {
				return freshAnalysis(t, base, prog, seed)
			})
		})
	}
}

// TestStreamsShareOnePlatform pins that consecutive streams on one pool are
// independent: they share the pooled platform, a second stream with the
// same seeds reproduces the first (no state leaks between streams), and a
// shorter stream yields a prefix.
func TestStreamsShareOnePlatform(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	prog := goldenProg()
	pool := NewPool()
	stream := func(runs int) []float64 {
		var times []float64
		if _, err := pool.StreamAnalysisTimes(context.Background(), cfg, prog, 0, runs,
			func(i int) uint64 { return uint64(5 + i) },
			func(v float64) bool { times = append(times, v); return false }); err != nil {
			t.Fatal(err)
		}
		return times
	}
	first := stream(4)
	if again := stream(4); !reflect.DeepEqual(again, first) {
		t.Fatalf("second stream diverged: %v vs %v", again, first)
	}
	if narrow := stream(2); !reflect.DeepEqual(narrow, first[:2]) {
		t.Fatalf("shorter stream %v is not a prefix of %v", narrow, first)
	}
	if pool.Size() != 1 {
		t.Fatalf("pool holds %d platforms after three streams of one config, want 1", pool.Size())
	}
}

// TestStreamZeroAlloc is the allocation guard: in steady state a
// stream allocates nothing per consumed run — a long stream allocates
// what a one-run stream does (the per-call setup). A -race build adds a
// few allocations of its own per call, so the comparison is per extra
// run, where one allocation per run would read 1.
func TestStreamZeroAlloc(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	prog := goldenProg()
	pool := NewPool()
	ctx := context.Background()
	seedFor := func(i int) uint64 { return uint64(i + 1) }
	noStop := func(float64) bool { return false }
	allocs := func(runs int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := pool.StreamAnalysisTimes(ctx, cfg, prog, 0, runs, seedFor, noStop); err != nil {
				t.Fatal(err)
			}
		})
	}
	const extra = 64
	short, long := allocs(1), allocs(1+extra)
	if perRun := (long - short) / extra; perRun >= 0.5 {
		t.Fatalf("stream allocates %.1f objects for %d runs vs %.1f for 1: %.2f per extra run",
			long, 1+extra, short, perRun)
	}
}

// TestStreamValidation covers the stream's argument edge cases: a zero run
// budget consumes nothing, and an invalid configuration is rejected before
// any run; neither calls back.
func TestStreamValidation(t *testing.T) {
	calls := 0
	seedFor := func(int) uint64 { calls++; return 1 }
	emit := func(float64) bool { calls++; return false }
	pool := NewPool()
	n, err := pool.StreamAnalysisTimes(context.Background(), DefaultConfig().WithEFL(500), goldenProg(), 0, 0, seedFor, emit)
	if err != nil || n != 0 {
		t.Fatalf("zero budget: n=%d err=%v, want 0 runs and no error", n, err)
	}
	bad := DefaultConfig().WithPartition([]int{8, 8, 8, 8}) // 32 of 8 LLC ways
	if _, err := pool.StreamAnalysisTimes(context.Background(), bad, goldenProg(), 0, 4, seedFor, emit); err == nil {
		t.Fatal("expected an error for an invalid configuration")
	}
	if calls != 0 {
		t.Fatalf("callbacks ran %d times without a run", calls)
	}
}

// TestBatchContextCancel pins that the stream checks ctx before every run:
// a cancelled context consumes nothing, and a cancellation during a run's
// emit stops the stream before the next run.
func TestBatchContextCancel(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	prog := goldenProg()
	pool := NewPool()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seeded := 0
	seedFor := func(i int) uint64 { seeded++; return uint64(i + 1) }
	n, err := pool.StreamAnalysisTimes(ctx, cfg, prog, 0, 10, seedFor, func(float64) bool { return false })
	if err != context.Canceled || n != 0 || seeded != 0 {
		t.Fatalf("pre-cancelled: n=%d seeded=%d err=%v, want 0 runs and context.Canceled", n, seeded, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	seeded, emitted := 0, 0
	n, err = pool.StreamAnalysisTimes(ctx, cfg, prog, 0, 10, seedFor, func(float64) bool {
		emitted++
		if emitted == 3 {
			cancel()
		}
		return false
	})
	if err != context.Canceled || n != 3 || seeded != 3 {
		t.Fatalf("cancelled at run 3: n=%d seeded=%d err=%v, want 3 runs and context.Canceled", n, seeded, err)
	}
}

// TestStreamSeedsOncePerConsumedRun pins the stream's seeding contract:
// seedFor is called exactly once per consumed run, in run order, and
// never past the run whose emit stopped the stream or past the budget —
// no run is simulated only to be discarded.
func TestStreamSeedsOncePerConsumedRun(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	prog := goldenProg()
	pool := NewPool()
	for _, tc := range []struct{ maxRuns, stopAt, want int }{
		{maxRuns: 100, stopAt: 5, want: 5},
		{maxRuns: 7, stopAt: 0, want: 7},
	} {
		var seeded []int
		emitted := 0
		n, err := pool.StreamAnalysisTimes(context.Background(), cfg, prog, 0, tc.maxRuns,
			func(i int) uint64 { seeded = append(seeded, i); return uint64(i + 1) },
			func(float64) bool { emitted++; return emitted == tc.stopAt })
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.want || emitted != tc.want {
			t.Fatalf("maxRuns %d stop at %d: consumed %d, emitted %d, want %d", tc.maxRuns, tc.stopAt, n, emitted, tc.want)
		}
		if len(seeded) != tc.want {
			t.Fatalf("maxRuns %d stop at %d: seedFor called %d times for %d consumed runs", tc.maxRuns, tc.stopAt, len(seeded), tc.want)
		}
		for i, run := range seeded {
			if run != i {
				t.Fatalf("seedFor call %d asked for run %d", i, run)
			}
		}
	}
}

// BenchmarkSingleRunCA is one interpreted analysis run of the kernel
// BenchmarkStreamAnalysisTimes uses — the baseline the analysis shortcuts
// (replay + rewind) are measured against.
func BenchmarkSingleRunCA(b *testing.B) {
	cfg := DefaultConfig().WithEFL(500).WithAnalysis(0)
	spec, err := bench.ByCode("CA")
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = spec.Build()
	m, err := New(cfg, progs, 1)
	if err != nil {
		b.Fatal(err)
	}
	var res Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunInto(&res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkStreamAnalysisTimes measures the converged-campaign path: one
// stream of b.N runs of CA, each rewound to its own seed. The per-run
// allocation figure is visible via -benchmem (0 allocs per consumed run in
// steady state is asserted by TestStreamZeroAlloc).
func BenchmarkStreamAnalysisTimes(b *testing.B) {
	cfg := DefaultConfig().WithEFL(500)
	spec, err := bench.ByCode("CA")
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.Build()
	pool := NewPool()
	ctx := context.Background()
	seedFor := func(i int) uint64 { return uint64(i + 1) }
	noStop := func(float64) bool { return false }
	if _, err := pool.StreamAnalysisTimes(ctx, cfg, prog, 0, 1, seedFor, noStop); err != nil { // record the trace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pool.StreamAnalysisTimes(ctx, cfg, prog, 0, b.N, seedFor, noStop); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/sec")
}
