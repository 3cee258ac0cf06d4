package sim

// Benchmarks for the simulation hot path. BenchmarkAnalysisRun and
// BenchmarkDeploymentQuadCore (sim_test.go) cover whole campaigns, and
// BenchmarkDeploymentKinds below splits deployment runs by platform kind;
// the other benchmarks here isolate the two innermost operations — a
// shared-LLC access and the parametric placement hash — so regressions
// can be localised. Run all of them with:
//
//	go test -run XXX -bench . -benchmem ./internal/sim/
//
// These benchmarks are not what BENCH_SIM.json records: the experiments
// binary (-exp bench, experiments.BenchSuite) re-implements its rows on
// the CA kernel. The zero allocs/op of every row is pinned
// deterministically by TestRunIntoZeroAlloc (golden_test.go), cache's
// TestAccessMissZeroAlloc and rnghash's TestSetZeroAlloc.

import (
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/rng"
	"efl/internal/rnghash"
)

// benchSink defeats dead-code elimination of pure benchmark loops.
var benchSink int

// BenchmarkLLCAccess drives the raw LLC access path (placement hash, tag
// scan, EoM victim draw, fill) with a working set of twice the cache
// capacity, so a large fraction of accesses miss and exercise eviction.
func BenchmarkLLCAccess(b *testing.B) {
	cfg := DefaultConfig().llcConfig()
	c := cache.New(cfg, rng.New(1))
	mask := cache.FullMask(cfg.Ways)
	lines := uint64(2 * cfg.SizeBytes / cfg.LineBytes)
	lineBytes := uint64(cfg.LineBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Large-stride walk: successive accesses land on unrelated lines,
		// the worst (and representative) case for the hashed placement.
		la := (uint64(i) * 2654435761) % lines
		c.Access(la*lineBytes, i&7 == 0, mask, -1)
	}
}

// BenchmarkLLCLookupHit drives the fused Lookup/CommitHit hit path on a
// resident line set, the common case of a warmed-up shared cache.
func BenchmarkLLCLookupHit(b *testing.B) {
	cfg := DefaultConfig().llcConfig()
	c := cache.New(cfg, rng.New(1))
	mask := cache.FullMask(cfg.Ways)
	lineBytes := uint64(cfg.LineBytes)
	const resident = 64
	for i := uint64(0); i < resident; i++ {
		c.Access(i*lineBytes, false, mask, -1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := (uint64(i) % resident) * lineBytes
		lk := c.Lookup(addr, mask)
		if lk.Hit {
			c.CommitHit(lk, false)
		} else {
			c.Fill(lk, false, mask, -1)
		}
	}
}

// BenchmarkHashSet measures the parametric placement hash alone — the
// operation behind every cache access of every simulated instruction.
func BenchmarkHashSet(b *testing.B) {
	cfg := DefaultConfig().llcConfig()
	h := rnghash.New(cfg.Sets(), rnghash.NewRII(rng.New(7)))
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += h.Set(uint64(i) * 31)
	}
	benchSink = sink
}

// BenchmarkDeploymentKinds times whole 4-core deployment runs per
// platform kind, through Pool.Get and RunInto as the fig4 and coherence
// campaigns take them: three fixed paper-kernel mixes under EFL (MID 500),
// CP 2/2/2/2 and the 3-level hierarchy, and the SC and FS shared-data
// kernels on the coherent 3-level platform. Run i (from 0) takes mix
// i mod 3 and seed i+1. It reports ns per retired instruction (all
// cores), so kinds whose runs differ in length compare directly:
//
//	go test -run XXX -bench DeploymentKinds ./internal/sim/
func BenchmarkDeploymentKinds(b *testing.B) {
	build := func(codes ...string) []*isa.Program {
		progs := make([]*isa.Program, len(codes))
		for i, code := range codes {
			spec, err := bench.ByCode(code)
			if err != nil {
				b.Fatal(err)
			}
			progs[i] = spec.Build()
		}
		return progs
	}
	mixes := [][]*isa.Program{
		build("CA", "MA", "PN", "II"),
		build("ID", "AI", "RS", "PU"),
		build("CN", "A2", "CA", "PN"),
	}
	sc, fs := threeLevelConfig(), threeLevelConfig()
	sc.SharedDataBytes = bench.SCSharedBytes
	fs.SharedDataBytes = bench.FSSharedBytes
	kinds := []struct {
		name string
		cfg  Config
		sets [][]*isa.Program
	}{
		{"efl", DefaultConfig().WithEFL(500), mixes},
		{"cp", DefaultConfig().WithPartition([]int{2, 2, 2, 2}), mixes},
		{"multilevel", threeLevelConfig(), mixes},
		{"coherent-SC", sc, [][]*isa.Program{sharedProgs(b, "SC", sc.Cores)}},
		{"coherent-FS", fs, [][]*isa.Program{sharedProgs(b, "FS", fs.Cores)}},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			pool := NewPool()
			var res Result
			var instrs uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := pool.Get(k.cfg, k.sets[i%len(k.sets)], uint64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if err := m.RunInto(&res); err != nil {
					b.Fatal(err)
				}
				for _, cr := range res.PerCore {
					instrs += cr.Instrs
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
