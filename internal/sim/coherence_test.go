package sim

import (
	"strings"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/fault"
	"efl/internal/isa"
	"efl/internal/metrics"
	"efl/internal/trace"
)

// threeLevelConfig is the multi-level platform the hierarchy tests use:
// private 4KB L1 pairs, a shared 16KB 4-way L2 at 6 cycles, and the
// 64KB 8-way EFL-protected LLC at 10 cycles.
func threeLevelConfig() Config {
	cfg := DefaultConfig().WithEFL(500)
	cfg.Hierarchy = []cache.LevelSpec{
		{Name: "L1", SizeBytes: 4 * 1024, Ways: 4, LatencyCycles: 1, Policy: cache.TimeRandomised},
		{Name: "L2", SizeBytes: 16 * 1024, Ways: 4, Shared: true, LatencyCycles: 6, Policy: cache.TimeRandomised},
		{Name: "LLC", SizeBytes: 64 * 1024, Ways: 8, Shared: true, LatencyCycles: 10, Policy: cache.TimeRandomised},
	}
	return cfg
}

// coherentConfig is the default platform with the MSI layer enabled over
// a sharedBytes-byte shared-data window.
func coherentConfig(sharedBytes int) Config {
	cfg := DefaultConfig().WithEFL(500)
	cfg.SharedDataBytes = sharedBytes
	return cfg
}

// sharedProgs builds the per-core programs of a shared-data workload.
func sharedProgs(t testing.TB, code string, cores int) []*isa.Program {
	t.Helper()
	spec, err := bench.SharedByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]*isa.Program, cores)
	for i := range progs {
		progs[i] = spec.Build(i)
	}
	return progs
}

// cohTracer returns a buffer keeping only the coherence event kinds.
func cohTracer() *trace.Buffer {
	return trace.NewBuffer(1<<20).Keep(
		trace.EvCohFetch, trace.EvCohUpgrade, trace.EvCohInval, trace.EvCohHit)
}

// TestHierarchyValidation is the satellite regression suite for the
// hierarchy descriptor: every malformed descriptor must be rejected with a
// descriptive error before construction.
func TestHierarchyValidation(t *testing.T) {
	lvl := func(name string, size, ways int, shared bool, lat int64) cache.LevelSpec {
		return cache.LevelSpec{Name: name, SizeBytes: size, Ways: ways,
			Shared: shared, LatencyCycles: lat, Policy: cache.TimeRandomised}
	}
	ok := threeLevelConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("three-level config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero levels", func(c *Config) { c.Hierarchy = []cache.LevelSpec{} }, "zero levels"},
		{"one level", func(c *Config) { c.Hierarchy = c.Hierarchy[:1] }, "at least two levels"},
		{"L1 shared", func(c *Config) { c.Hierarchy[0].Shared = true }, "cannot be shared"},
		{"mid private", func(c *Config) { c.Hierarchy[1].Shared = false }, "must be shared"},
		{"size not power of two", func(c *Config) { c.Hierarchy[1].SizeBytes = 24 * 1024 }, "power of two"},
		{"ways not power of two", func(c *Config) { c.Hierarchy[1].Ways = 3 }, "power of two"},
		{"zero latency", func(c *Config) { c.Hierarchy[1].LatencyCycles = 0 }, "latency"},
		{"negative latency", func(c *Config) { c.Hierarchy[2].LatencyCycles = -4 }, "latency"},
		{"empty name", func(c *Config) { c.Hierarchy[1].Name = "" }, "name"},
		{"duplicate name", func(c *Config) { c.Hierarchy[2].Name = "L2" }, "duplicate"},
		{"write-through", func(c *Config) { c.DL1WriteThrough = true }, "two-level"},
		{"partition overruns last level", func(c *Config) {
			c.MID = 0
			c.PartitionWays = []int{4, 4, 4, 4}
			c.Hierarchy[2] = lvl("LLC", 64*1024, 8, true, 10)
		}, "partition"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := threeLevelConfig()
			cfg.Hierarchy = append([]cache.LevelSpec(nil), cfg.Hierarchy...)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("malformed hierarchy accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	t.Run("shared window", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			mut  func(*Config)
			want string
		}{
			{"negative", func(c *Config) { c.SharedDataBytes = -16 }, "negative"},
			{"not line multiple", func(c *Config) { c.SharedDataBytes = 24 }, "multiple"},
			{"overruns segment", func(c *Config) { c.SharedDataBytes = 1 << 30 }, "overruns"},
			{"write-through", func(c *Config) {
				c.SharedDataBytes = 256
				c.DL1WriteThrough = true
			}, "write-back"},
		} {
			cfg := DefaultConfig()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got %v, want mention of %q", tc.name, err, tc.want)
			}
		}
	})
}

// TestExplicitDefaultHierarchyBitIdentical pins the tentpole's hard
// constraint from the descriptor side: a Hierarchy that spells out the
// default two-level layout produces bit-identical results to the legacy
// flat fields, in both modes.
func TestExplicitDefaultHierarchyBitIdentical(t *testing.T) {
	flat := DefaultConfig().WithEFL(500)
	expl := flat
	expl.Hierarchy = []cache.LevelSpec{
		{Name: "L1", SizeBytes: flat.L1SizeBytes, Ways: flat.L1Ways,
			LatencyCycles: 1, Policy: flat.Policy},
		{Name: "LLC", SizeBytes: flat.LLCSizeBytes, Ways: flat.LLCWays,
			Shared: true, LatencyCycles: flat.LLCHitCycles, Policy: flat.Policy},
	}
	prog := goldenProg()
	for _, mode := range []string{"analysis", "deployment"} {
		t.Run(mode, func(t *testing.T) {
			fc, ec := flat, expl
			var progs []*isa.Program
			if mode == "analysis" {
				fc, ec = fc.WithAnalysis(0), ec.WithAnalysis(0)
				progs = make([]*isa.Program, fc.Cores)
				progs[0] = prog
			} else {
				progs = []*isa.Program{prog, prog, prog, prog}
			}
			mf, err := New(fc, progs, 1)
			if err != nil {
				t.Fatal(err)
			}
			me, err := New(ec, progs, 1)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := mf.Run()
			if err != nil {
				t.Fatal(err)
			}
			re, err := me.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ff, fe := goldenFingerprint(rf), goldenFingerprint(re); ff != fe {
				t.Fatalf("explicit default hierarchy diverged:\nflat %s\nexpl %s", ff, fe)
			}
		})
	}
}

// TestThreeLevelEndToEnd runs a 4-core deployment through the private-L1 →
// shared-L2 → shared-LLC hierarchy and checks the generic per-level stats
// plus the A1/A2 invariants.
func TestThreeLevelEndToEnd(t *testing.T) {
	cfg := threeLevelConfig()
	prog := goldenProg()
	m, err := New(cfg, []*isa.Program{prog, prog, prog, prog}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) != 3 {
		t.Fatalf("PerLevel has %d levels, want 3", len(res.PerLevel))
	}
	for i, want := range []string{"L1", "L2", "LLC"} {
		if res.PerLevel[i].Name != want {
			t.Errorf("level %d named %q, want %q", i, res.PerLevel[i].Name, want)
		}
	}
	if res.PerLevel[0].Shared || !res.PerLevel[1].Shared || !res.PerLevel[2].Shared {
		t.Errorf("sharing flags wrong: %+v", res.PerLevel)
	}
	l2 := res.PerLevel[1].Stats
	if l2.Accesses == 0 || l2.Hits == 0 {
		t.Fatalf("shared L2 saw no traffic: %+v", l2)
	}
	// The interposed L2 filters the LLC: the last level must see only the
	// L2's misses (plus writebacks), strictly fewer lookups than the L2.
	if res.PerLevel[2].Stats.Accesses >= l2.Accesses {
		t.Errorf("LLC accesses %d not filtered below L2's %d",
			res.PerLevel[2].Stats.Accesses, l2.Accesses)
	}
	assertAttribution(t, cfg, res)
}

// TestThreeLevelStreamMatchesFresh is the stream property test on the deeper
// hierarchy: run i of a stream over the 3-level config is exactly a fresh
// analysis run under seedFor(i), audited run by run.
func TestThreeLevelStreamMatchesFresh(t *testing.T) {
	cfg := threeLevelConfig()
	prog := bench.CANRdr()
	seeds := make([]uint64, 8)
	for i := range seeds {
		seeds[i] = uint64(4000 + 13*i)
	}
	checkStream(t, cfg, prog, seeds, func(seed uint64) *Result {
		return freshAnalysis(t, cfg, prog, seed)
	})
}

// TestThreeLevelRewindMatchesFresh extends the Rewind bit-identity
// contract to hierarchies with intermediate levels (their PRNG streams
// must re-derive in construction fork order too).
func TestThreeLevelRewindMatchesFresh(t *testing.T) {
	cfg := threeLevelConfig().WithAnalysis(0)
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = goldenProg()
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
			t.Fatalf("seed %d: rewound 3-level run diverged:\n got %s\nwant %s", seed, gf, wf)
		}
	}
}

// TestPerLevelStatsDefault pins the per-level stats on the default layout:
// level 0 sums the per-core IL1/DL1 pairs and level 1 is the LLC.
func TestPerLevelStatsDefault(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	prog := goldenProg()
	m, err := New(cfg, []*isa.Program{prog, prog, prog, prog}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerLevel) != 2 {
		t.Fatalf("PerLevel has %d levels, want 2", len(res.PerLevel))
	}
	if res.PerLevel[0].Name != "L1" || res.PerLevel[1].Name != "LLC" {
		t.Fatalf("level names %q/%q", res.PerLevel[0].Name, res.PerLevel[1].Name)
	}
	var l1 cache.Stats
	for _, cr := range res.PerCore {
		if cr.Active {
			addCacheStats(&l1, cr.IL1)
			addCacheStats(&l1, cr.DL1)
		}
	}
	if l1 != res.PerLevel[0].Stats {
		t.Errorf("level 0 stats %+v != summed L1 pairs %+v", res.PerLevel[0].Stats, l1)
	}
	if res.PerLevel[1].Stats != m.llc.Stats() {
		t.Errorf("level 1 stats %+v != LLC %+v", res.PerLevel[1].Stats, m.llc.Stats())
	}
}

// TestCoherenceProtocol is the satellite protocol unit test: under seeded
// random interleavings of the true-sharing workload the directory must
// generate upgrade/invalidation traffic, attribute its cycles (A1 closes,
// checked via assertAttribution), and the trace-replayed A5 invariant —
// SWMR, invalidate-on-write, no stale reads — must hold.
func TestCoherenceProtocol(t *testing.T) {
	cfg := coherentConfig(bench.SCSharedBytes)
	progs := sharedProgs(t, "SC", cfg.Cores)
	for _, seed := range []uint64{1, 2, 17, 301} {
		m, err := New(cfg, progs, seed)
		if err != nil {
			t.Fatal(err)
		}
		buf := cohTracer()
		m.SetTracer(buf)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		cs := m.CoherenceStats()
		if cs.Upgrades == 0 || cs.Invalidations == 0 {
			t.Fatalf("seed %d: true-sharing run produced no protocol traffic: %+v", seed, cs)
		}
		var coh int64
		for _, cr := range res.PerCore {
			coh += cr.Attribution[metrics.Coherence]
		}
		if coh == 0 {
			t.Fatalf("seed %d: no cycles attributed to coherence", seed)
		}
		assertAttribution(t, cfg, res)
		aud := NewAuditor()
		if err := aud.CheckCoherence(cfg, buf.Events()); err != nil {
			t.Fatalf("seed %d: A5 violated on a healthy run: %v", seed, err)
		}
		rep := aud.Report().Invariants[AuditCoherence]
		if rep.Checks == 0 {
			t.Fatalf("seed %d: A5 recorded no checks", seed)
		}
	}
}

// TestFalseSharingReport checks the per-line sharing report: the FS
// workload's lines are flagged as false sharing (disjoint word footprints),
// the SC workload's are not.
func TestFalseSharingReport(t *testing.T) {
	run := func(code string, shared int) []LineSharingStats {
		cfg := coherentConfig(shared)
		m, err := New(cfg, sharedProgs(t, code, cfg.Cores), 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.SharingReport()
	}
	fs := run("FS", bench.FSSharedBytes)
	nFalse := 0
	for _, l := range fs {
		if l.FalseShared {
			nFalse++
		}
	}
	if nFalse == 0 {
		t.Fatalf("FS workload produced no false-shared lines: %+v", fs)
	}
	for _, l := range run("SC", bench.SCSharedBytes) {
		if l.FalseShared {
			t.Errorf("SC (true sharing) line %#x flagged as false sharing", l.Addr)
		}
		if l.Cores < 2 {
			t.Errorf("SC line %#x touched by %d cores, want all", l.Addr, l.Cores)
		}
	}
}

// TestCoherentReuseMatchesFresh extends the Reuse bit-identity contract to
// coherent platforms: the rebuilt cores must be re-wired to the directory
// and the replayed runs must match fresh construction.
func TestCoherentReuseMatchesFresh(t *testing.T) {
	cfg := coherentConfig(bench.SCSharedBytes)
	progs := sharedProgs(t, "SC", cfg.Cores)
	reused, err := New(cfg, progs, 999)
	if err != nil {
		t.Fatal(err)
	}
	var got, want Result
	for _, seed := range []uint64{3, 11, 3} {
		fresh, err := New(cfg, progs, seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RunInto(&want); err != nil {
			t.Fatal(err)
		}
		if err := reused.Reuse(progs, seed); err != nil {
			t.Fatal(err)
		}
		if err := reused.RunInto(&got); err != nil {
			t.Fatal(err)
		}
		if gf, wf := goldenFingerprint(&got), goldenFingerprint(&want); gf != wf {
			t.Fatalf("seed %d: reused coherent run diverged:\n got %s\nwant %s", seed, gf, wf)
		}
	}
}

// TestCohDroppedInvalCaught is satellite 6's unit form: a dropped
// invalidation leaves a stale L1 copy, and the A5 trace replay must catch
// the stale read while the same run without the fault passes.
func TestCohDroppedInvalCaught(t *testing.T) {
	cfg := coherentConfig(bench.SCSharedBytes)
	progs := sharedProgs(t, "SC", cfg.Cores)
	for _, faulty := range []bool{false, true} {
		m, err := New(cfg, progs, 7)
		if err != nil {
			t.Fatal(err)
		}
		if faulty {
			if err := m.ArmFaults(fault.Single(fault.CohDroppedInval, 1)); err != nil {
				t.Fatal(err)
			}
		}
		buf := cohTracer()
		m.SetTracer(buf)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		err = NewAuditor().CheckCoherence(cfg, buf.Events())
		if faulty && err == nil {
			t.Fatal("A5 missed the dropped invalidation")
		}
		if faulty && !strings.Contains(err.Error(), "stale") {
			t.Fatalf("A5 error %q does not name the stale copy", err)
		}
		if !faulty && err != nil {
			t.Fatalf("healthy run failed A5: %v", err)
		}
	}
}

// TestCohFaultValidation pins the arming rules: the fault needs a specific
// core and a coherent platform.
func TestCohFaultValidation(t *testing.T) {
	cfg := coherentConfig(bench.SCSharedBytes)
	m, err := New(cfg, sharedProgs(t, "SC", cfg.Cores), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ArmFaults(fault.Single(fault.CohDroppedInval, fault.AllCores)); err == nil {
		t.Fatal("AllCores target accepted")
	}
	plain, err := New(DefaultConfig().WithEFL(500),
		[]*isa.Program{goldenProg(), nil, nil, nil}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ArmFaults(fault.Single(fault.CohDroppedInval, 1)); err == nil {
		t.Fatal("armed a coherence fault on a platform without the coherence layer")
	}
}

// TestCoherentEndToEndThreeLevel is the acceptance-criteria path in unit
// form: the MSI layer composed with the private-L1 → shared-L2 → shared-LLC
// hierarchy, A1 and A5 holding.
func TestCoherentEndToEndThreeLevel(t *testing.T) {
	cfg := threeLevelConfig()
	cfg.SharedDataBytes = bench.SCSharedBytes
	progs := sharedProgs(t, "SC", cfg.Cores)
	m, err := New(cfg, progs, 21)
	if err != nil {
		t.Fatal(err)
	}
	buf := cohTracer()
	m.SetTracer(buf)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.CoherenceStats().Invalidations == 0 {
		t.Fatal("no invalidation traffic through the 3-level hierarchy")
	}
	assertAttribution(t, cfg, res)
	if err := NewAuditor().CheckCoherence(cfg, buf.Events()); err != nil {
		t.Fatalf("A5: %v", err)
	}
	if res.PerLevel[1].Stats.Accesses == 0 {
		t.Fatal("shared L2 saw no traffic under the coherent workload")
	}
}
