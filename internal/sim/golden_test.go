package sim

import (
	"fmt"
	"strings"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
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
	goldenAnalysisEFLRun2 = "core0 cycles=76277 instrs=2318 il1=2318/4 dl1=768/173 efl{ev=134 stall=53714 dsum=73391} buswait=1310\nLLC acc=226 hit=92 miss=134 evict=5 wb=0 forced=464 flush=0\ntotal=76277"
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
	l := llcStats(res)
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

// llcStats returns the run's last-level cache statistics.
func llcStats(res *Result) cache.Stats { return res.PerLevel[len(res.PerLevel)-1].Stats }

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

// TestL1StatsPerRun pins the per-run L1 counters: the second run of a
// platform (no Rewind in between) reports its own IL1/DL1 accesses, as the
// LLC and intermediate levels do, not the sum over both runs.
func TestL1StatsPerRun(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500).WithAnalysis(0)
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = goldenProg()
	m, err := New(cfg, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var run1, run2 Result
	if err := m.RunInto(&run1); err != nil {
		t.Fatal(err)
	}
	if err := m.RunInto(&run2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"IL1", run2.PerCore[0].IL1.Accesses, run1.PerCore[0].IL1.Accesses},
		{"DL1", run2.PerCore[0].DL1.Accesses, run1.PerCore[0].DL1.Accesses},
		{"level 0", run2.PerLevel[0].Stats.Accesses, run1.PerLevel[0].Stats.Accesses},
	} {
		if c.got != c.want {
			t.Errorf("%s: run 2 reports %d accesses, run 1 %d", c.name, c.got, c.want)
		}
	}
}

// TestRunIntoZeroAlloc pins the other half of the observability contract:
// with the audit off, the fully instrumented RunInto still allocates
// nothing per run — in EFL and CP 2/2/2/2 deployment, in analysis mode
// (the analysis_run row of BENCH_SIM.json), on the 3-level hierarchy
// (multilevel_run) and on an MSI-coherent deployment of the SC and FS
// kernels, whose directory keeps its entries across runs — and, through
// Pool.Get, across switches between replayed program sets.
func TestRunIntoZeroAlloc(t *testing.T) {
	prog := goldenProg()
	quad := []*isa.Program{prog, prog, prog, prog}
	coherent := func(sharedBytes int) Config {
		cfg := threeLevelConfig()
		cfg.SharedDataBytes = sharedBytes
		return cfg
	}
	cases := []struct {
		name  string
		cfg   Config
		progs []*isa.Program
	}{
		{"deployment", DefaultConfig().WithEFL(500), quad},
		{"cp deployment", DefaultConfig().WithPartition([]int{2, 2, 2, 2}), quad},
		{"analysis", DefaultConfig().WithEFL(500).WithAnalysis(0), []*isa.Program{prog, nil, nil, nil}},
		{"multilevel", threeLevelConfig(), quad},
		{"coherent", coherent(bench.SCSharedBytes), sharedProgs(t, "SC", 4)},
		{"coherent FS", coherent(bench.FSSharedBytes), sharedProgs(t, "FS", 4)},
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
	// Pool.Get switching between two program sets of separately built
	// programs re-targets the pooled platform's cores in place and finds
	// their traces pooled by image: once both sets have run, a switch and
	// a replayed run allocate nothing.
	t.Run("pool get", func(t *testing.T) {
		a := func() *isa.Program { return loopProg("a", 256, 3) }
		b := func() *isa.Program { return loopProg("b", 1024, 1) }
		sets := [][]*isa.Program{{a(), b(), computeProg(400), a()}, {b(), a(), b(), computeProg(400)}}
		cfg := DefaultConfig().WithEFL(500)
		pool := NewPool()
		var res Result
		run := func(i int) {
			m, err := pool.Get(cfg, sets[i%len(sets)], uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RunInto(&res); err != nil {
				t.Fatal(err)
			}
		}
		for i := range sets {
			run(i)
		}
		i := 0
		if allocs := testing.AllocsPerRun(4, func() { run(i); i++ }); allocs != 0 {
			t.Fatalf("Pool.Get + RunInto allocates %.1f per run", allocs)
		}
	})
}

// The hierarchy goldens pin the layouts the two-level fingerprints above
// do not reach: a 4-core EFL deployment on the 3-level hierarchy (shared
// L2 between the L1s and the LLC) and a 4-core MSI-coherent deployment of
// the SC shared-data kernel. Two consecutive runs each, so the cross-run
// reseeding of the intermediate level and the per-run directory reset are
// covered too. The fingerprint adds every level's counters and the
// protocol traffic to goldenFingerprint's.
var (
	goldenThreeLevel = [2]string{
		"core0 cycles=71942 instrs=2318 il1=2318/4 dl1=768/188 efl{ev=133 stall=52474 dsum=69485} buswait=0\ncore1 cycles=60685 instrs=2318 il1=2318/4 dl1=768/189 efl{ev=132 stall=41316 dsum=57790} buswait=0\ncore2 cycles=73359 instrs=2318 il1=2318/4 dl1=768/199 efl{ev=134 stall=53602 dsum=70023} buswait=0\ncore3 cycles=67303 instrs=2318 il1=2318/4 dl1=768/172 efl{ev=133 stall=48108 dsum=63622} buswait=0\nLLC acc=549 hit=17 miss=532 evict=39 wb=0 forced=0 flush=0\nbus tx=1023 wait=26 busy=2046\nmem rd=532 wr=29 wait=85\ntotal=73359\nL1 acc=12344 hit=11580 miss=764 evict=259 wb=259\nL2 acc=1023 hit=434 miss=589 evict=163 wb=29\nLLC acc=549 hit=17 miss=532 evict=39 wb=0\ncoh upg=0 excl=0 inval=0 down=0",
		"core0 cycles=75485 instrs=2318 il1=2318/4 dl1=768/197 efl{ev=132 stall=55954 dsum=72630} buswait=0\ncore1 cycles=69846 instrs=2318 il1=2318/4 dl1=768/192 efl{ev=132 stall=50383 dsum=66619} buswait=0\ncore2 cycles=68325 instrs=2318 il1=2318/4 dl1=768/192 efl{ev=132 stall=48869 dsum=64610} buswait=0\ncore3 cycles=67610 instrs=2318 il1=2318/4 dl1=768/210 efl{ev=132 stall=47882 dsum=63988} buswait=0\nLLC acc=553 hit=25 miss=528 evict=38 wb=0 forced=0 flush=0\nbus tx=1122 wait=31 busy=2244\nmem rd=528 wr=34 wait=37\ntotal=75485\nL1 acc=12344 hit=11537 miss=807 evict=315 wb=804\nL2 acc=1122 hit=533 miss=589 evict=149 wb=34\nLLC acc=553 hit=25 miss=528 evict=38 wb=0\ncoh upg=0 excl=0 inval=0 down=0",
	}
	goldenCoherent = [2]string{
		"core0 cycles=76582 instrs=18604 il1=18604/46 dl1=10801/1951 efl{ev=62 stall=22829 dsum=30299} buswait=0\ncore1 cycles=77699 instrs=18604 il1=18604/46 dl1=10801/2042 efl{ev=68 stall=22397 dsum=30233} buswait=0\ncore2 cycles=77942 instrs=18604 il1=18604/45 dl1=10801/1927 efl{ev=60 stall=25271 dsum=32638} buswait=0\ncore3 cycles=75056 instrs=18604 il1=18604/43 dl1=10801/1866 efl{ev=65 stall=22798 dsum=30842} buswait=0\nLLC acc=8030 hit=7775 miss=255 evict=10 wb=0 forced=0 flush=0\nbus tx=15233 wait=2779 busy=30466\nmem rd=255 wr=7260 wait=13216\ntotal=77942\nL1 acc=117620 hit=109654 miss=7966 evict=426 wb=64\nLLC acc=8030 hit=7775 miss=255 evict=10 wb=0\ncoh upg=7203 excl=122 inval=7388 down=7162",
		"core0 cycles=77070 instrs=18604 il1=18604/45 dl1=10801/1908 efl{ev=58 stall=24594 dsum=32298} buswait=0\ncore1 cycles=75442 instrs=18604 il1=18604/45 dl1=10801/1935 efl{ev=69 stall=21558 dsum=29742} buswait=0\ncore2 cycles=76823 instrs=18604 il1=18604/42 dl1=10801/1989 efl{ev=62 stall=22946 dsum=30606} buswait=0\ncore3 cycles=75467 instrs=18604 il1=18604/47 dl1=10801/1954 efl{ev=61 stall=22145 dsum=30448} buswait=0\nLLC acc=8036 hit=7786 miss=250 evict=10 wb=0 forced=0 flush=0\nbus tx=15234 wait=2784 busy=30468\nmem rd=250 wr=7220 wait=12053\ntotal=77070\nL1 acc=117620 hit=109655 miss=7965 evict=489 wb=87\nLLC acc=8036 hit=7786 miss=250 evict=10 wb=0\ncoh upg=7198 excl=95 inval=7328 down=7167",
	}
)

// goldenHierarchyFingerprint extends goldenFingerprint with the per-level
// counters and the run's coherence traffic.
func goldenHierarchyFingerprint(m *Multicore, res *Result) string {
	var b strings.Builder
	b.WriteString(goldenFingerprint(res))
	for _, l := range res.PerLevel {
		s := l.Stats
		fmt.Fprintf(&b, "\n%s acc=%d hit=%d miss=%d evict=%d wb=%d",
			l.Name, s.Accesses, s.Hits, s.Misses, s.Evictions, s.Writebacks)
	}
	c := m.CoherenceStats()
	fmt.Fprintf(&b, "\ncoh upg=%d excl=%d inval=%d down=%d", c.Upgrades, c.ExclFetches, c.Invalidations, c.Downgrades)
	return b.String()
}

// checkHierarchyGolden runs a freshly built platform twice and compares
// each run with its pinned fingerprint.
func checkHierarchyGolden(t *testing.T, cfg Config, progs []*isa.Program, want [2]string) {
	t.Helper()
	m, err := New(cfg, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for run := range want {
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenHierarchyFingerprint(m, res); got != want[run] {
			t.Errorf("run %d fingerprint drifted.\ngot:\n%s\nwant:\n%s", run+1, got, want[run])
		}
		assertAttribution(t, cfg, res)
	}
}

func TestGoldenThreeLevelDeployment(t *testing.T) {
	prog := goldenProg()
	checkHierarchyGolden(t, threeLevelConfig(), []*isa.Program{prog, prog, prog, prog}, goldenThreeLevel)
}

func TestGoldenCoherentDeployment(t *testing.T) {
	cfg := coherentConfig(bench.SCSharedBytes)
	checkHierarchyGolden(t, cfg, sharedProgs(t, "SC", cfg.Cores), goldenCoherent)
}
