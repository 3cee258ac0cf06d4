package sim

// Tests for the less-travelled datapaths: dirty writebacks through the
// hierarchy, posted memory writes, analysis-mode envelopes and stress
// invariants.

import (
	"context"
	"testing"

	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/rng"
	"efl/internal/trace"
)

// storeHeavy writes a working set larger than the DL1 repeatedly, forcing
// dirty DL1 victims (LLC writebacks) and dirty LLC victims (posted memory
// writes).
func storeHeavy(words, passes int) *isa.Program {
	b := isa.NewBuilder("stores")
	b.ReserveData(words * 8)
	b.Movi(1, 0)
	b.Movi(2, int64(passes))
	b.Movi(7, int64(words*8))
	b.Label("pass")
	b.Movi(4, 0)
	b.Label("inner")
	b.Movi(5, int64(isa.DataBase))
	b.Add(5, 5, 4)
	b.St(1, 5, 0)
	b.Addi(4, 4, 16)
	b.Blt(4, 7, "inner")
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "pass")
	b.Halt()
	return b.MustProgram()
}

func TestWritebackPathReachesMemory(t *testing.T) {
	// A store-heavy program larger than DL1 and LLC must generate posted
	// memory writes (dirty LLC victims).
	prog := storeHeavy(8192, 2) // 64KB of dirty lines, 2 passes
	m, err := New(DefaultConfig(), []*isa.Program{prog}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerCore[0].Pipe.Writebacks == 0 {
		t.Fatal("no DL1 writebacks from a store-heavy program")
	}
	if res.Mem.Writes == 0 {
		t.Fatal("no posted memory writes despite dirty LLC evictions")
	}
	if llcStats(res).Writebacks == 0 {
		t.Fatal("LLC recorded no writebacks")
	}
}

func TestAnalysisMemoryChargesUBD(t *testing.T) {
	// In analysis mode every memory read is charged the AMC UBD; with a
	// single always-missing stream the per-miss cost must be at least
	// UBD = cores*slot + service.
	cfg := DefaultConfig().WithEFL(250)
	prog := storeHeavy(8192, 1)
	ana, err := RunAnalysis(cfg, prog, 5)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := New(DefaultConfig().WithEFL(250), []*isa.Program{prog}, 5)
	if err != nil {
		t.Fatal(err)
	}
	depRes, err := dep.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Analysis must not be faster than isolated deployment.
	if ana.PerCore[0].Cycles < depRes.PerCore[0].Cycles {
		t.Fatalf("analysis (%d) faster than isolated deployment (%d)",
			ana.PerCore[0].Cycles, depRes.PerCore[0].Cycles)
	}
	ubd := int64(cfg.Cores)*cfg.MemSlotCycles + cfg.MemCycles
	if ubd != 120 {
		t.Fatalf("default UBD = %d, want 120", ubd)
	}
}

func TestEveryTRMissIsAnEviction(t *testing.T) {
	// Under true EoM the LLC's miss and eviction-event counts coincide:
	// each demand miss consumes the EFL eviction budget. Verify via the
	// EFL unit's eviction counter.
	prog := storeHeavy(2048, 2)
	m, err := New(DefaultConfig().WithEFL(500), []*isa.Program{prog}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	llc := llcStats(res)
	if llc.Misses == 0 {
		t.Fatal("no LLC misses")
	}
	if res.PerCore[0].EFL.Evictions != llc.Misses {
		t.Fatalf("EFL evictions (%d) != LLC misses (%d): some miss bypassed the gate",
			res.PerCore[0].EFL.Evictions, llc.Misses)
	}
}

func TestTDPlatformFillsWithoutGate(t *testing.T) {
	// The TD ablation platform fills invalid ways without evicting;
	// its eviction count is below its miss count during warmup.
	cfg := DefaultConfig()
	cfg.Policy = cache.TimeDeterministic
	prog := storeHeavy(1024, 1)
	m, err := New(cfg, []*isa.Program{prog}, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	llc := llcStats(res)
	if llc.Misses == 0 {
		t.Fatal("no LLC misses")
	}
	if llc.Evictions >= llc.Misses {
		t.Fatalf("TD LLC evictions (%d) not below misses (%d)", llc.Evictions, llc.Misses)
	}
}

func TestAnalysisDeterministicAcrossConstruction(t *testing.T) {
	// The same seed must give identical analysis times whether the
	// platform is reused across runs or rebuilt: randomness depends only
	// on the seed, not on allocation history.
	prog := storeHeavy(512, 2)
	cfg := DefaultConfig().WithEFL(500)
	a, err := NewPool().CollectAnalysisTimes(context.Background(), cfg, prog, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPool().CollectAnalysisTimes(context.Background(), cfg, prog, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStressRandomPrograms drives the platform with many small random
// (but well-formed) programs and checks structural invariants: no
// deadlock, monotone clocks, consistent statistics.
func TestStressRandomPrograms(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 12; trial++ {
		prog := randomProgram(src, 200+src.Intn(400))
		progs := []*isa.Program{prog, prog, prog, prog}
		var cfg Config
		switch trial % 3 {
		case 0:
			cfg = DefaultConfig().WithEFL(int64(100 + src.Intn(900)))
		case 1:
			cfg = DefaultConfig().WithPartition([]int{2, 2, 2, 2})
		default:
			cfg = DefaultConfig()
		}
		m, err := New(cfg, progs, src.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for c, cr := range res.PerCore {
			if cr.Cycles <= 0 || cr.Instrs == 0 {
				t.Fatalf("trial %d core %d: %+v", trial, c, cr)
			}
			if cr.IL1.Hits+cr.IL1.Misses != cr.IL1.Accesses {
				t.Fatalf("trial %d core %d: IL1 stats inconsistent", trial, c)
			}
		}
		if llc := llcStats(res); llc.Hits+llc.Misses != llc.Accesses {
			t.Fatalf("trial %d: LLC stats inconsistent", trial)
		}
	}
}

// randomProgram emits a random but guaranteed-terminating program: a
// bounded loop whose body mixes ALU, loads and stores over a small
// segment.
func randomProgram(src rng.Stream, bodyLen int) *isa.Program {
	b := isa.NewBuilder("fuzz")
	const words = 512
	b.ReserveData(words * 8)
	b.Movi(1, 0)                      // induction
	b.Movi(2, int64(20+src.Intn(30))) // iterations
	b.Movi(3, int64(isa.DataBase))
	b.Label("loop")
	for i := 0; i < bodyLen; i++ {
		r := 4 + src.Intn(10) // r4..r13
		switch src.Intn(8) {
		case 0:
			b.Addi(r, r, int64(src.Intn(100)))
		case 1:
			b.Xor(r, r, 4+src.Intn(10))
		case 2:
			b.Mul(r, 4+src.Intn(10), 4+src.Intn(10))
		case 3:
			// Bounded load: address = base + (i*8 mod segment).
			off := int64(src.Intn(words)) * 8
			b.Ld(r, 3, off)
		case 4:
			off := int64(src.Intn(words)) * 8
			b.St(r, 3, off)
		case 5:
			b.Add(r, r, 1)
		case 6:
			b.Shr(r, r, 4+src.Intn(10))
		default:
			b.Sub(r, r, 4+src.Intn(10))
		}
	}
	b.Addi(1, 1, 1)
	b.Blt(1, 2, "loop")
	b.Halt()
	return b.MustProgram()
}

func TestTracerRecordsRunEvents(t *testing.T) {
	prog := storeHeavy(1024, 2)
	progs := make([]*isa.Program, 4)
	progs[0] = prog
	m, err := New(DefaultConfig().WithEFL(250).WithAnalysis(0), progs, 13)
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer(200000)
	m.SetTracer(buf)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	st := buf.Stats()
	// The analysed core must show LLC misses and a halt.
	if st[0][trace.EvLLCMiss] == 0 {
		t.Fatal("no LLC misses traced")
	}
	if st[0][trace.EvCoreHalt] != 1 {
		t.Fatalf("halt events = %d", st[0][trace.EvCoreHalt])
	}
	// The three CRG cores must show artificial evictions.
	crg := 0
	for core := int16(1); core < 4; core++ {
		crg += st[core][trace.EvCRGEvict]
	}
	if crg == 0 {
		t.Fatal("no CRG evictions traced")
	}
	// EFL stalls should appear for an eviction-heavy program at MID 250.
	if st[0][trace.EvEFLStall] == 0 {
		t.Fatal("no EFL stalls traced")
	}
	// Detach and re-run: no growth.
	m.SetTracer(nil)
	before := len(buf.Events())
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(buf.Events()) != before {
		t.Fatal("detached tracer still recorded")
	}
}
