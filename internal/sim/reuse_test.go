package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/cpu"
	"efl/internal/isa"
	"efl/internal/rng"
)

// reuseScenario is one (Config, program set) combination whose Reuse
// behaviour must be bit-identical to fresh construction.
type reuseScenario struct {
	name  string
	cfg   Config
	progs func() []*isa.Program
}

func reuseScenarios() []reuseScenario {
	prog := func() *isa.Program { return loopProg("reuse", 256, 3) }
	other := func() *isa.Program { return loopProg("other", 96, 5) }
	quad := func(p func() *isa.Program) []*isa.Program {
		return []*isa.Program{p(), p(), p(), p()}
	}
	analysis := func(p func() *isa.Program) []*isa.Program {
		progs := make([]*isa.Program, 4)
		progs[0] = p()
		return progs
	}
	td := DefaultConfig()
	td.Policy = cache.TimeDeterministic
	wt := DefaultConfig().WithEFL(500).WithAnalysis(0)
	wt.DL1WriteThrough = true
	coherent := coherentConfig(bench.SCSharedBytes)
	shared := func() []*isa.Program {
		spec, err := bench.SharedByCode("SC")
		if err != nil {
			panic(err)
		}
		progs := make([]*isa.Program, coherent.Cores)
		for i := range progs {
			progs[i] = spec.Build(i)
		}
		return progs
	}
	return []reuseScenario{
		{"efl-analysis", DefaultConfig().WithEFL(500).WithAnalysis(0), func() []*isa.Program { return analysis(prog) }},
		{"efl-analysis-other-prog", DefaultConfig().WithEFL(500).WithAnalysis(0), func() []*isa.Program { return analysis(other) }},
		{"cp-analysis", DefaultConfig().WithPartition([]int{2, 0, 0, 0}).WithAnalysis(0), func() []*isa.Program { return analysis(prog) }},
		{"efl-deployment", DefaultConfig().WithEFL(250), func() []*isa.Program { return quad(prog) }},
		{"cp-deployment", DefaultConfig().WithPartition([]int{1, 2, 4, 1}), func() []*isa.Program { return quad(other) }},
		{"td-deployment", td, func() []*isa.Program { return []*isa.Program{prog()} }},
		{"writethrough-analysis", wt, func() []*isa.Program { return analysis(prog) }},
		{"three-level-deployment", threeLevelConfig(), func() []*isa.Program { return quad(prog) }},
		{"three-level-analysis", threeLevelConfig().WithAnalysis(0), func() []*isa.Program { return analysis(other) }},
		{"coherent-deployment", coherent, shared},
	}
}

// runFingerprints runs m n times and returns the per-run fingerprints.
func runFingerprints(t *testing.T, m *Multicore, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = goldenFingerprint(res)
	}
	return out
}

// TestReuseMatchesFresh pins the Reuse contract: a platform that already
// ran arbitrary prior work, rewound with Reuse(progs, seed), produces
// run-for-run bit-identical results to New(cfg, progs, seed). Covered
// across EFL/CP, analysis/deployment, TD placement, write-through, the
// 3-level hierarchy and the MSI-coherent platform, program swaps and
// multiple consecutive runs (so the cross-run RII reseeding after a Reuse
// is exercised too). New itself ends in Reuse, so the golden tests are
// the independent check of the path both take.
func TestReuseMatchesFresh(t *testing.T) {
	for _, sc := range reuseScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			const seed = 42
			fresh, err := New(sc.cfg, sc.progs(), seed)
			if err != nil {
				t.Fatal(err)
			}
			want := runFingerprints(t, fresh, 3)

			// Dirty a platform of the same Config with different work
			// under a different seed, then rewind it.
			reused, err := New(sc.cfg, sc.progs(), 7)
			if err != nil {
				t.Fatal(err)
			}
			runFingerprints(t, reused, 2)
			if err := reused.Reuse(sc.progs(), seed); err != nil {
				t.Fatal(err)
			}
			got := runFingerprints(t, reused, 3)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("run %d diverged after Reuse.\ngot:\n%s\nwant:\n%s", i+1, got[i], want[i])
				}
			}
		})
	}
}

// TestPooledRunMatchesFresh is the pooled ≡ fresh property, field by
// field: run n of a pooled platform, rewound under a seed after unrelated
// work, must equal run n of a fresh New at that seed in every field of
// Result (reflect.DeepEqual), in CoherenceStats and in SharingReport.
// It covers EFL, CP, 3-level and MSI-coherent deployments. The dirtying
// work differs from the measured work: on the coherent platforms it
// touches shared lines the measured kernel never does and leaves a
// posted-write backlog behind, so a directory entry or a memory-controller
// queue that survives a rewind shows up as a field difference. A counter
// added later without a per-run reset fails this test.
func TestPooledRunMatchesFresh(t *testing.T) {
	quad := func(p *isa.Program) []*isa.Program { return []*isa.Program{p, p, p, p} }
	shared := func(code string) []*isa.Program { return sharedProgs(t, code, 4) }
	cases := []struct {
		name          string
		cfg           Config
		progs, before []*isa.Program
	}{
		{"efl", DefaultConfig().WithEFL(500), quad(goldenProg()), quad(loopProg("dirty", 96, 5))},
		{"cp", DefaultConfig().WithPartition([]int{1, 2, 4, 1}), quad(goldenProg()), quad(loopProg("dirty", 96, 5))},
		{"three-level", threeLevelConfig(), quad(goldenProg()), quad(loopProg("dirty", 96, 5))},
		{"coherent SC after FS", coherentConfig(bench.FSSharedBytes), shared("SC"), shared("FS")},
		{"coherent FS after SC", coherentConfig(bench.FSSharedBytes), shared("FS"), shared("SC")},
	}
	type outcome struct {
		Res     Result
		Coh     CoherenceStats
		Sharing []LineSharingStats
	}
	runs := func(m *Multicore, n int) []outcome {
		out := make([]outcome, n)
		for i := range out {
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = outcome{*res, m.CoherenceStats(), m.SharingReport()}
		}
		return out
	}
	src := rng.New(5)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool()
			m, err := pool.Get(tc.cfg, tc.before, src.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			runs(m, 1+src.Intn(3))
			for trial := 0; trial < 2; trial++ {
				seed := src.Uint64()
				n := 1 + src.Intn(3)
				if trial == 0 {
					// Pooled: Get reuses the dirtied platform.
					if m, err = pool.Get(tc.cfg, tc.progs, seed); err != nil {
						t.Fatal(err)
					}
				} else {
					// Rewound: the same programs, after n runs of them.
					m.Rewind(seed)
				}
				fresh, err := New(tc.cfg, tc.progs, seed)
				if err != nil {
					t.Fatal(err)
				}
				got, want := runs(m, n), runs(fresh, n)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						var diffs []string
						fieldDiffs("", reflect.ValueOf(got[i]), reflect.ValueOf(want[i]), &diffs)
						t.Fatalf("trial %d, seed %d, run %d of %d differs from a fresh platform:\n%s",
							trial, seed, i+1, n, strings.Join(diffs, "\n"))
					}
				}
				if len(want[0].Sharing) == 0 != (tc.cfg.SharedDataBytes == 0) {
					t.Fatalf("sharing report has %d lines", len(want[0].Sharing))
				}
			}
		})
	}
}

// fieldDiffs appends the path and both values of every leaf where a and b
// differ, walking structs, arrays and slices by reflection (unexported
// fields included), so a failing comparison names the counter at fault.
func fieldDiffs(path string, a, b reflect.Value, out *[]string) {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			fieldDiffs(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i), out)
		}
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			*out = append(*out, fmt.Sprintf("%s: len %d, fresh %d", path, a.Len(), b.Len()))
			return
		}
		for i := 0; i < a.Len(); i++ {
			fieldDiffs(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), out)
		}
	default:
		if av, bv := fmt.Sprint(a), fmt.Sprint(b); av != bv {
			*out = append(*out, fmt.Sprintf("%s: %s, fresh %s", path, av, bv))
		}
	}
}

// TestReuseSwapsPrograms verifies Reuse across program swaps on the same
// pooled platform, including activating a previously idle core set.
func TestReuseSwapsPrograms(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	a := loopProg("a", 256, 3)
	b := loopProg("b", 96, 5)

	m, err := New(cfg, []*isa.Program{a, a, a, a}, 1)
	if err != nil {
		t.Fatal(err)
	}
	runFingerprints(t, m, 1)

	// Swap to a 2-program deployment (cores 2/3 go idle).
	if err := m.Reuse([]*isa.Program{b, b}, 2); err != nil {
		t.Fatal(err)
	}
	got := runFingerprints(t, m, 2)
	fresh, err := New(cfg, []*isa.Program{b, b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := runFingerprints(t, fresh, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("2-prog run %d diverged.\ngot:\n%s\nwant:\n%s", i+1, got[i], want[i])
		}
	}

	// Swap back to four programs (cores 2/3 reactivate with fresh L1s).
	if err := m.Reuse([]*isa.Program{a, b, a, b}, 3); err != nil {
		t.Fatal(err)
	}
	got = runFingerprints(t, m, 1)
	fresh2, err := New(cfg, []*isa.Program{a, b, a, b}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want = runFingerprints(t, fresh2, 1)
	if got[0] != want[0] {
		t.Fatalf("4-prog run diverged.\ngot:\n%s\nwant:\n%s", got[0], want[0])
	}
}

// TestReuseValidation pins the error cases New rejects.
func TestReuseValidation(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500).WithAnalysis(0)
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = loopProg("v", 64, 2)
	m, err := New(cfg, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]*isa.Program, cfg.Cores)
	bad[1] = progs[0]
	if err := m.Reuse(bad, 1); err == nil {
		t.Error("analysis-mode program on wrong core accepted")
	}
	long := make([]*isa.Program, cfg.Cores+1)
	if err := m.Reuse(long, 1); err == nil {
		t.Error("too many programs accepted")
	}

	cp := DefaultConfig().WithPartition([]int{2, 0, 0, 0})
	mc, err := New(cp, []*isa.Program{progs[0]}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Reuse([]*isa.Program{progs[0], progs[0]}, 1); err == nil {
		t.Error("program on 0-way partition accepted")
	}
}

// TestPoolReuses verifies the pool returns one platform per Config and
// that pooled campaigns match unpooled ones bit for bit.
func TestPoolReuses(t *testing.T) {
	p := NewPool()
	cfgA := DefaultConfig().WithEFL(500).WithAnalysis(0)
	cfgB := DefaultConfig().WithEFL(250).WithAnalysis(0)
	prog := loopProg("pool", 128, 3)
	progs := make([]*isa.Program, cfgA.Cores)
	progs[0] = prog

	m1, err := p.Get(cfgA, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Get(cfgA, progs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("same Config did not reuse the pooled platform")
	}
	m3, err := p.Get(cfgB, progs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Error("distinct Configs shared a platform")
	}
	if p.Size() != 2 {
		t.Errorf("pool holds %d platforms, want 2", p.Size())
	}

	want, err := NewPool().CollectAnalysisTimes(context.Background(), cfgA, prog, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.CollectAnalysisTimes(context.Background(), cfgA, prog, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled time %d = %v, fresh = %v", i, got[i], want[i])
		}
	}
}

// TestPoolCancellation verifies ctx aborts a campaign between runs.
func TestPoolCancellation(t *testing.T) {
	p := NewPool()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.CollectAnalysisTimes(ctx, DefaultConfig().WithEFL(500), loopProg("c", 64, 2), 10, 1)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// pooledTrace returns the trace p holds for prog's image at lineBytes,
// and whether it holds one.
func (p *Pool) pooledTrace(prog *isa.Program, lineBytes int) (*cpu.Trace, bool) {
	e, ok := p.traces.Get(traceKey{imageSum(prog), lineBytes})
	return e.tr, ok && e.prog.SameImage(prog)
}

// TestPoolTraceRecordedOnce pins that a pool records one program's replay
// trace once, however many campaigns — fixed-count or streamed — and
// deployments run it, and whichever separately built copy of the program
// they pass: traces are keyed by the program's image, not its pointer.
func TestPoolTraceRecordedOnce(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	build := func() *isa.Program { return loopProg("once", 256, 3) }
	pool := NewPool()
	var first *cpu.Trace
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := pool.CollectAnalysisTimes(context.Background(), cfg, build(), 5, seed); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.StreamAnalysisTimes(context.Background(), cfg, build(), 0, 4,
			func(i int) uint64 { return seed + uint64(i) }, func(float64) bool { return false }); err != nil {
			t.Fatal(err)
		}
		if _, err := pool.Get(cfg, []*isa.Program{build(), build()}, seed); err != nil {
			t.Fatal(err)
		}
		tr, ok := pool.pooledTrace(build(), cfg.LineBytes)
		if !ok || tr == nil {
			t.Fatalf("seed %d: no pooled trace for the program", seed)
		}
		if first == nil {
			first = tr
		} else if tr != first {
			t.Fatalf("seed %d: the program's trace was recorded again", seed)
		}
	}
	if n := pool.traces.Len(); n != 1 {
		t.Fatalf("pool holds %d traces for one program, want 1", n)
	}
}

// TestPoolTraceBudget pins the pool's replay-trace bound: serving more
// distinct programs than the byte budget holds keeps the pool within it,
// evicting the least recently used traces first, and the byte budget
// binds before the entry cap. The programs differ in one data word, so
// each has its own image and trace; they sweep four arrays 16 KiB apart,
// so every load carries a full address and few instructions fill the
// budget.
func TestPoolTraceBudget(t *testing.T) {
	b := isa.NewBuilder("big")
	b.ReserveData(4 << 16)
	b.Movi(1, int64(isa.DataBase))
	b.Movi(2, int64(isa.DataBase)+1<<16)
	b.Label("sweep")
	for i := int64(0); i < 4; i++ {
		b.Ld(3, 1, i<<14)
	}
	b.Addi(1, 1, 8)
	b.Blt(1, 2, "sweep")
	b.Halt()
	base := b.MustProgram()
	tr, err := cpu.RecordTraceFor(base, DefaultConfig().MaxInstrPerCore, DefaultConfig().LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	fit := int(poolTraceBytes / tr.Bytes())
	if fit >= poolTraceEntries {
		t.Fatalf("%d traces of %d bytes fit the byte budget: the entry cap %d binds first", fit, tr.Bytes(), poolTraceEntries)
	}
	pool := NewPool()
	progs := make([]*isa.Program, fit+3)
	for i := range progs {
		cp := *base
		cp.Data = binary.LittleEndian.AppendUint64(append([]byte(nil), base.Data...), uint64(i))
		progs[i] = &cp
		pool.traceFor(progs[i], DefaultConfig().LineBytes, DefaultConfig().MaxInstrPerCore)
		if got := pool.traces.Bytes(); got > poolTraceBytes {
			t.Fatalf("after %d programs the pool holds %d trace bytes, budget %d", i+1, got, poolTraceBytes)
		}
	}
	if n := pool.traces.Len(); n != fit {
		t.Fatalf("pool holds %d traces, want the %d that fit the budget", n, fit)
	}
	if _, ok := pool.pooledTrace(progs[0], DefaultConfig().LineBytes); ok {
		t.Fatal("the least recently used trace survived past the budget")
	}
	if _, ok := pool.pooledTrace(progs[len(progs)-1], DefaultConfig().LineBytes); !ok {
		t.Fatal("the most recent trace was evicted")
	}
}

// TestConfigKeyCoversEveryField pins that the pool's configuration key
// tells apart two configurations differing in any one field of Config or
// of a hierarchy level, so a field added later without a place in
// appendConfigKey fails here instead of aliasing pooled platforms.
func TestConfigKeyCoversEveryField(t *testing.T) {
	base := threeLevelConfig()
	base.PartitionWays = []int{1, 2, 3, 2}
	want := configKey(base)
	bump := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("no way to change a %s field", v.Kind())
		}
	}
	check := func(what string, cfg Config) {
		if configKey(cfg) == want {
			t.Errorf("changing %s leaves the configuration key unchanged", what)
		}
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := base
		cfg.PartitionWays = slices.Clone(base.PartitionWays)
		cfg.Hierarchy = slices.Clone(base.Hierarchy)
		switch name {
		case "PartitionWays":
			cfg.PartitionWays[1]++
			check(name, cfg)
			cfg.PartitionWays = nil
			check(name+" (nil)", cfg)
		case "Hierarchy":
			lt := reflect.TypeOf(cache.LevelSpec{})
			for j := 0; j < lt.NumField(); j++ {
				lvl := slices.Clone(base.Hierarchy)
				bump(reflect.ValueOf(&lvl[0]).Elem().Field(j))
				cfg.Hierarchy = lvl
				check(name+"."+lt.Field(j).Name, cfg)
			}
		default:
			bump(reflect.ValueOf(&cfg).Elem().Field(i))
			check(name, cfg)
		}
	}
}
