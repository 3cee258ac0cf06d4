package sim

import (
	"fmt"
	"strings"
	"testing"

	"efl/internal/isa"
)

// The golden fingerprints pin the exact seed-1 behaviour of the simulator:
// per-core cycle counts, instruction counts and cache/EFL/bus/memory event
// counters for one EFL analysis campaign (two consecutive runs, so the
// cross-run RII reseeding is covered), one CP analysis run and one 4-core
// EFL deployment run.
//
// Any change that perturbs the MWC PRNG draw order, the event dispatch
// order or the cache state machines shifts these numbers and fails this
// test loudly. Performance work on the simulator hot paths must keep
// results bit-identical (see DESIGN.md, "Performance"); if a change is
// *intended* to alter timing behaviour, re-pin the constants and say so in
// the commit message.
const (
	goldenAnalysisEFLRun1 = "core0 cycles=72935 instrs=2318 il1=2318/4 dl1=768/178 efl{ev=134 stall=49990 dsum=70162} buswait=1452\nLLC acc=236 hit=102 miss=134 evict=12 wb=1 forced=450 flush=0\ntotal=72935"
	goldenAnalysisEFLRun2 = "core0 cycles=76277 instrs=2318 il1=4636/8 dl1=1536/351 efl{ev=134 stall=53714 dsum=73391} buswait=1310\nLLC acc=226 hit=92 miss=134 evict=5 wb=0 forced=464 flush=0\ntotal=76277"
	goldenAnalysisCP      = "core0 cycles=23065 instrs=2318 il1=2318/4 dl1=768/178 efl{ev=137 stall=0 dsum=0} buswait=1452\nLLC acc=236 hit=99 miss=137 evict=16 wb=2 forced=0 flush=0\ntotal=23065"
	goldenDeployment      = "core0 cycles=74286 instrs=2318 il1=2318/4 dl1=768/178 efl{ev=138 stall=55323 dsum=71892} buswait=0\ncore1 cycles=62649 instrs=2318 il1=2318/4 dl1=768/197 efl{ev=136 stall=43058 dsum=59617} buswait=0\ncore2 cycles=73917 instrs=2318 il1=2318/4 dl1=768/189 efl{ev=136 stall=54736 dsum=70610} buswait=0\ncore3 cycles=67762 instrs=2318 il1=2318/4 dl1=768/185 efl{ev=134 stall=48713 dsum=63806} buswait=0\nLLC acc=1032 hit=488 miss=544 evict=39 wb=7 forced=0 flush=0\nbus tx=1032 wait=23 busy=2064\nmem rd=535 wr=7 wait=103\ntotal=74286"
)

// goldenFingerprint renders everything a run result exposes that perf work
// must not change.
func goldenFingerprint(res *Result) string {
	var b strings.Builder
	for i, cr := range res.PerCore {
		if !cr.Active {
			continue
		}
		fmt.Fprintf(&b, "core%d cycles=%d instrs=%d il1=%d/%d dl1=%d/%d efl{ev=%d stall=%d dsum=%d} buswait=%d\n",
			i, cr.Cycles, cr.Instrs,
			cr.IL1.Accesses, cr.IL1.Misses,
			cr.DL1.Accesses, cr.DL1.Misses,
			cr.EFL.Evictions, cr.EFL.StallCycles, cr.EFL.DelaySum,
			cr.AnalysisBusWait)
	}
	l := res.LLC
	fmt.Fprintf(&b, "LLC acc=%d hit=%d miss=%d evict=%d wb=%d forced=%d flush=%d\n",
		l.Accesses, l.Hits, l.Misses, l.Evictions, l.Writebacks, l.ForcedEvict, l.Flushes)
	if res.Bus.Transactions > 0 {
		fmt.Fprintf(&b, "bus tx=%d wait=%d busy=%d\n",
			res.Bus.Transactions, res.Bus.WaitCycles, res.Bus.BusyCycles)
	}
	if res.Mem.Reads+res.Mem.Writes > 0 {
		fmt.Fprintf(&b, "mem rd=%d wr=%d wait=%d\n",
			res.Mem.Reads, res.Mem.Writes, res.Mem.WaitCycles)
	}
	fmt.Fprintf(&b, "total=%d", res.TotalCycles)
	return b.String()
}

func goldenProg() *isa.Program { return loopProg("golden", 256, 3) }

// assertAttribution checks the observability layer's own invariants on a
// pinned golden run: the per-core cycle decomposition is exhaustive and
// memory reads respect the UBD. Running it inside the golden tests proves
// the instrumentation is both bit-neutral (the fingerprints above) and
// correct (the sums below) on the same runs.
func assertAttribution(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	ubd := int64(cfg.Cores)*cfg.MemSlotCycles + cfg.MemCycles
	for i, cr := range res.PerCore {
		if !cr.Active {
			continue
		}
		if sum := cr.Attribution.Sum(); sum != cr.Cycles {
			t.Errorf("core %d: attribution sums to %d of %d cycles (%v)",
				i, sum, cr.Cycles, cr.Attribution.Map())
		}
		if cr.MaxReadLatency > ubd {
			t.Errorf("core %d: read latency %d exceeds UBD %d", i, cr.MaxReadLatency, ubd)
		}
	}
	if aud := NewAuditor(); aud.CheckRun(cfg, res) != nil {
		t.Errorf("auditor rejects golden run: %v", aud.Err())
	}
}

func TestGoldenAnalysisEFL(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500).WithAnalysis(0)
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = goldenProg()
	m, err := New(cfg, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for run, want := range []string{goldenAnalysisEFLRun1, goldenAnalysisEFLRun2} {
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenFingerprint(res); got != want {
			t.Errorf("EFL analysis run %d fingerprint drifted.\ngot:\n%s\nwant:\n%s", run+1, got, want)
		}
		assertAttribution(t, cfg, res)
	}
}

func TestGoldenAnalysisCP(t *testing.T) {
	cfg := DefaultConfig().WithPartition([]int{2, 0, 0, 0}).WithAnalysis(0)
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = goldenProg()
	m, err := New(cfg, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenFingerprint(res); got != goldenAnalysisCP {
		t.Errorf("CP analysis fingerprint drifted.\ngot:\n%s\nwant:\n%s", got, goldenAnalysisCP)
	}
	assertAttribution(t, cfg, res)
}

func TestGoldenDeployment(t *testing.T) {
	prog := goldenProg()
	m, err := New(DefaultConfig().WithEFL(500), []*isa.Program{prog, prog, prog, prog}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenFingerprint(res); got != goldenDeployment {
		t.Errorf("deployment fingerprint drifted.\ngot:\n%s\nwant:\n%s", got, goldenDeployment)
	}
	assertAttribution(t, m.Config(), res)
}

// TestRunIntoZeroAlloc pins the other half of the observability contract:
// with the audit off, the fully instrumented RunInto still allocates
// nothing per run — in deployment, in analysis mode (the analysis_run row
// of BENCH_SIM.json) and on the 3-level hierarchy (multilevel_run).
func TestRunIntoZeroAlloc(t *testing.T) {
	prog := goldenProg()
	quad := []*isa.Program{prog, prog, prog, prog}
	cases := []struct {
		name  string
		cfg   Config
		progs []*isa.Program
	}{
		{"deployment", DefaultConfig().WithEFL(500), quad},
		{"analysis", DefaultConfig().WithEFL(500).WithAnalysis(0), []*isa.Program{prog, nil, nil, nil}},
		{"multilevel", threeLevelConfig(), quad},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg, tc.progs, 1)
			if err != nil {
				t.Fatal(err)
			}
			var res Result
			if err := m.RunInto(&res); err != nil { // warm up buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if err := m.RunInto(&res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("instrumented RunInto allocates %.1f per run", allocs)
			}
		})
	}
}
