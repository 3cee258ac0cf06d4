package sim

import (
	"context"
	"testing"

	"efl/internal/cache"
	"efl/internal/efl"
	"efl/internal/isa"
)

// loopProg builds a small compute loop with a configurable data working
// set: iters passes over words words of data (stride one line).
func loopProg(name string, words, iters int) *isa.Program {
	b := isa.NewBuilder(name)
	b.ReserveData(words * 8)
	b.Movi(1, 0)            // pass counter
	b.Movi(2, int64(iters)) // pass bound
	b.Movi(3, int64(isa.DataBase))
	b.Movi(7, int64(words*8)) // byte bound
	b.Label("pass")
	b.Movi(4, 0) // byte offset
	b.Label("inner")
	b.Add(5, 3, 4)
	b.Ld(6, 5, 0)
	b.Addi(6, 6, 1)
	b.St(6, 5, 0)
	b.Addi(4, 4, 16) // one cache line per iteration
	b.Blt(4, 7, "inner")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "pass")
	b.Halt()
	return b.MustProgram()
}

// computeProg is a pure-ALU loop (no data accesses at all).
func computeProg(iters int) *isa.Program {
	b := isa.NewBuilder("compute")
	b.Movi(1, 0)
	b.Movi(2, int64(iters))
	b.Label("loop")
	b.Addi(3, 3, 7)
	b.Xor(4, 3, 1)
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustProgram()
}

func TestValidateConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("0 cores accepted")
	}
	bad = cfg.WithEFL(500)
	bad.PartitionWays = []int{2, 2, 2, 2}
	if bad.Validate() == nil {
		t.Error("EFL+CP combination accepted")
	}
	bad = cfg.WithPartition([]int{4, 4, 4, 4})
	if bad.Validate() == nil {
		t.Error("oversubscribed partition accepted")
	}
	// 0-way partitions are valid for idle cores (analysis-mode CP), but a
	// core running a program must have at least one way.
	zeroWay := cfg.WithPartition([]int{8, 0, 0, 0})
	if zeroWay.Validate() != nil {
		t.Error("0-way partition for idle cores rejected")
	}
	if _, err := New(zeroWay, []*isa.Program{nil, computeProg(10), nil, nil}, 1); err == nil {
		t.Error("program on a 0-way partition accepted")
	}
	neg := cfg.WithPartition([]int{8, -1, 0, 0})
	if neg.Validate() == nil {
		t.Error("negative partition accepted")
	}
	bad = cfg.WithAnalysis(9)
	if bad.Validate() == nil {
		t.Error("out-of-range analysed core accepted")
	}
}

func TestLLCMasks(t *testing.T) {
	cfg := DefaultConfig().WithPartition([]int{1, 2, 4, 1})
	if m := cfg.llcMask(0); m != cache.MaskRange(0, 1) {
		t.Errorf("core0 mask %#b", m)
	}
	if m := cfg.llcMask(2); m != cache.MaskRange(3, 4) {
		t.Errorf("core2 mask %#b", m)
	}
	shared := DefaultConfig()
	if m := shared.llcMask(3); m != cache.FullMask(8) {
		t.Errorf("shared mask %#b", m)
	}
}

func TestSingleCoreDeploymentCompletes(t *testing.T) {
	cfg := DefaultConfig()
	prog := loopProg("small", 64, 3) // 64 lines = 1KB, fits everywhere
	m, err := New(cfg, []*isa.Program{prog}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	cr := res.PerCore[0]
	if !cr.Active || cr.Instrs == 0 || cr.Cycles <= 0 {
		t.Fatalf("core result = %+v", cr)
	}
	if cr.IPC <= 0 || cr.IPC > 1 {
		t.Fatalf("IPC = %v", cr.IPC)
	}
	// Warm data after first pass: DL1 misses bounded by ~working set.
	if cr.DL1.Misses > cr.DL1.Accesses {
		t.Fatal("stats inconsistent")
	}
	if res.TotalCycles != cr.Cycles {
		t.Fatal("TotalCycles wrong")
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	prog := loopProg("det", 128, 2)
	run := func() int64 {
		m, err := New(cfg, []*isa.Program{prog, prog, prog, prog}, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, cr := range res.PerCore {
			sum += cr.Cycles
		}
		return sum
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different timings: %d vs %d", a, b)
	}
}

func TestRunsVaryAcrossRIIs(t *testing.T) {
	// Successive Run() calls on the same platform must differ (new RIIs,
	// new random draws) — the property MBPTA measurement collection needs.
	cfg := DefaultConfig()
	prog := loopProg("vary", 512, 2)
	m, err := New(cfg, []*isa.Program{prog}, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i := 0; i < 10; i++ {
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		seen[res.PerCore[0].Cycles] = true
	}
	if len(seen) < 2 {
		t.Fatalf("10 runs produced %d distinct execution times", len(seen))
	}
}

func TestComputeBoundIPCNearOne(t *testing.T) {
	// A pure-ALU loop has only cold instruction misses; IPC approaches
	// the in-order bound set by the taken-branch penalty: the 4-instr
	// loop body costs 5 cycles -> IPC ~0.8.
	cfg := DefaultConfig()
	prog := computeProg(20000)
	m, _ := New(cfg, []*isa.Program{prog}, 3)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ipc := res.PerCore[0].IPC
	if ipc < 0.75 || ipc > 0.85 {
		t.Fatalf("compute-bound IPC = %v, want ~0.8", ipc)
	}
}

func TestMemoryBoundSlower(t *testing.T) {
	cfg := DefaultConfig()
	// Working set 8192 lines = 128KB >> 64KB LLC: thrashes everything.
	big := loopProg("big", 8192*2, 1)
	small := loopProg("small", 64, 256) // similar instruction count
	mBig, _ := New(cfg, []*isa.Program{big}, 4)
	mSmall, _ := New(cfg, []*isa.Program{small}, 4)
	rBig, err := mBig.Run()
	if err != nil {
		t.Fatal(err)
	}
	rSmall, err := mSmall.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rBig.PerCore[0].IPC >= rSmall.PerCore[0].IPC {
		t.Fatalf("streaming program (IPC %v) not slower than cache-resident one (IPC %v)",
			rBig.PerCore[0].IPC, rSmall.PerCore[0].IPC)
	}
	if rBig.Mem.Reads == 0 {
		t.Fatal("streaming program never reached memory")
	}
}

func TestAnalysisModeCRGInterference(t *testing.T) {
	prog := loopProg("tua", 256, 4)
	// EFL analysis: CRGs evict.
	cfgEFL := DefaultConfig().WithEFL(250).WithAnalysis(0)
	progs := make([]*isa.Program, 4)
	progs[0] = prog
	m, err := New(cfgEFL, progs, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if llcStats(res).ForcedEvict == 0 {
		t.Fatal("analysis mode with EFL produced no CRG evictions")
	}
	// Roughly one eviction per MID cycles per co-runner core.
	perCRG := float64(llcStats(res).ForcedEvict) / 3
	cycles := float64(res.PerCore[0].Cycles)
	rate := cycles / perCRG
	if rate < 200 || rate > 320 {
		t.Fatalf("CRG eviction rate: one per %.0f cycles, want ~250", rate)
	}
	if res.PerCore[0].AnalysisBusWait == 0 {
		t.Fatal("no phantom bus contention charged at analysis")
	}
}

func TestAnalysisSlowerThanIsolatedDeployment(t *testing.T) {
	// pWCET trustworthiness: analysis-time execution must upper-bound an
	// uncontended deployment run of the same program.
	prog := loopProg("bound", 256, 4)
	ana := runAnalysis(t, DefaultConfig().WithEFL(500), prog, 6)
	mDep, _ := New(DefaultConfig().WithEFL(500), []*isa.Program{prog}, 6)
	dep, err := mDep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ana.PerCore[0].Cycles <= dep.PerCore[0].Cycles {
		t.Fatalf("analysis run (%d) not slower than isolated deployment (%d)",
			ana.PerCore[0].Cycles, dep.PerCore[0].Cycles)
	}
}

func TestEFLStallsGrowWithMID(t *testing.T) {
	// A streaming program misses constantly; its own EFL gate must stall
	// it more with a larger MID (deployment, isolated).
	prog := loopProg("stream", 8192*2, 1)
	var stalls [2]int64
	var cycles [2]int64
	for i, mid := range []int64{250, 1000} {
		m, err := New(DefaultConfig().WithEFL(mid), []*isa.Program{prog}, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		stalls[i] = res.PerCore[0].EFL.StallCycles
		cycles[i] = res.PerCore[0].Cycles
	}
	if stalls[1] <= stalls[0] {
		t.Fatalf("EFL stalls did not grow with MID: %d (mid250) vs %d (mid1000)", stalls[0], stalls[1])
	}
	if cycles[1] <= cycles[0] {
		t.Fatalf("execution time did not grow with MID: %d vs %d", cycles[0], cycles[1])
	}
}

func TestPartitionHurtsCapacity(t *testing.T) {
	// Working set ~2048 lines (32KB): fits in 8 ways (4096 lines), thrashes
	// in 1 way (512 lines).
	prog := loopProg("ws32k", 2048*2, 3)
	m1, _ := New(DefaultConfig().WithPartition([]int{1, 1, 1, 1}), []*isa.Program{prog}, 9)
	m8, _ := New(DefaultConfig(), []*isa.Program{prog}, 9)
	r1, err := m1.Run()
	if err != nil {
		t.Fatal(err)
	}
	r8, err := m8.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PerCore[0].Cycles <= r8.PerCore[0].Cycles {
		t.Fatalf("1-way partition (%d cycles) not slower than full LLC (%d cycles)",
			r1.PerCore[0].Cycles, r8.PerCore[0].Cycles)
	}
}

func TestPartitionIsolationEndToEnd(t *testing.T) {
	// Under CP, a thrashing co-runner must not evict the victim task's
	// LLC lines; under a fully shared LLC without EFL it degrades them.
	victim := loopProg("victim", 512, 6)
	bully := loopProg("bully", 8192*2, 2)

	runPair := func(cfg Config) (victimCycles int64) {
		m, err := New(cfg, []*isa.Program{victim, bully}, 10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.PerCore[0].Cycles
	}
	cp := runPair(DefaultConfig().WithPartition([]int{2, 2, 2, 2}))
	shared := runPair(DefaultConfig())
	if shared <= 0 || cp <= 0 {
		t.Fatal("runs failed")
	}
	// The shared-uncontrolled victim should generally be slower than the
	// partitioned one, but random placement noise exists; assert only a
	// sane relationship (within 3x) and that both completed.
	if cp > shared*3 {
		t.Fatalf("partitioned victim (%d) wildly slower than shared victim (%d)", cp, shared)
	}
}

func TestFourCoreDeploymentContention(t *testing.T) {
	prog := loopProg("quad", 512, 3)
	m, err := New(DefaultConfig().WithEFL(500), []*isa.Program{prog, prog, prog, prog}, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range res.PerCore {
		if !cr.Active || cr.Instrs == 0 {
			t.Fatalf("core %d inactive: %+v", i, cr)
		}
	}
	if res.Bus.Transactions == 0 {
		t.Fatal("no bus transactions in a 4-core run")
	}
	if res.Bus.WaitCycles == 0 {
		t.Fatal("4 contending cores produced zero bus wait")
	}
	// Solo runs for comparison: contention must slow core 0 down on
	// average (individual runs vary with random placement).
	avg := func(progs []*isa.Program) float64 {
		m, err := New(DefaultConfig().WithEFL(500), progs, 11)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		const n = 8
		for i := 0; i < n; i++ {
			r, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(r.PerCore[0].Cycles)
		}
		return sum / n
	}
	contended := avg([]*isa.Program{prog, prog, prog, prog})
	solo := avg([]*isa.Program{prog})
	if contended <= solo {
		t.Fatalf("contended average (%v) not slower than solo (%v)", contended, solo)
	}
}

func TestAnalysisRequiresSingleProgram(t *testing.T) {
	prog := computeProg(10)
	cfg := DefaultConfig().WithEFL(500).WithAnalysis(0)
	if _, err := New(cfg, []*isa.Program{prog, prog, nil, nil}, 1); err == nil {
		t.Fatal("analysis mode accepted a co-runner program")
	}
	if _, err := New(cfg, []*isa.Program{nil, prog, nil, nil}, 1); err == nil {
		t.Fatal("analysis mode accepted program on wrong core")
	}
}

func TestCollectAnalysisTimes(t *testing.T) {
	prog := loopProg("times", 128, 2)
	times, err := NewPool().CollectAnalysisTimes(context.Background(), DefaultConfig().WithEFL(500), prog, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 20 {
		t.Fatalf("%d times", len(times))
	}
	distinct := map[float64]bool{}
	for _, v := range times {
		if v <= 0 {
			t.Fatal("non-positive execution time")
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatal("analysis times are constant; randomisation broken")
	}
}

func TestFaultSurfaces(t *testing.T) {
	b := isa.NewBuilder("crash")
	b.Movi(1, 1)
	b.Div(2, 1, 0)
	b.Halt()
	m, _ := New(DefaultConfig(), []*isa.Program{b.MustProgram()}, 1)
	if _, err := m.Run(); err == nil {
		t.Fatal("machine fault not surfaced by Run")
	}
}

func TestModeRecordedInResults(t *testing.T) {
	prog := loopProg("modes", 64, 1)
	res := runAnalysis(t, DefaultConfig().WithEFL(250), prog, 13)
	// In analysis mode the analysed core's EFL stats must show evictions
	// being recorded, and the mode must be analysis.
	if res.PerCore[0].EFL.Evictions == 0 && llcStats(res).Misses > 0 {
		// Only fails if the program missed in LLC with a full set; this
		// small program may not evict. Accept either, but CRGs must run:
		if llcStats(res).ForcedEvict == 0 {
			t.Fatal("no eviction activity at analysis")
		}
	}
	_ = efl.Analysis
}

func BenchmarkDeploymentQuadCore(b *testing.B) {
	prog := loopProg("bench", 512, 2)
	m, err := New(DefaultConfig().WithEFL(500), []*isa.Program{prog, prog, prog, prog}, 1)
	if err != nil {
		b.Fatal(err)
	}
	var res Result
	if err := m.RunInto(&res); err != nil { // warm result buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunInto(&res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisRun(b *testing.B) {
	prog := loopProg("bench", 512, 2)
	progs := make([]*isa.Program, 4)
	progs[0] = prog
	m, err := New(DefaultConfig().WithEFL(500).WithAnalysis(0), progs, 1)
	if err != nil {
		b.Fatal(err)
	}
	var res Result
	if err := m.RunInto(&res); err != nil { // warm result buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.RunInto(&res); err != nil {
			b.Fatal(err)
		}
	}
}
