package sim

// Micro-benchmarks for the simulation hot path. BenchmarkAnalysisRun and
// BenchmarkDeploymentQuadCore (sim_test.go) cover whole campaigns; the
// benchmarks here isolate the two innermost operations — a shared-LLC
// access and the parametric placement hash — so regressions can be
// localised. Run all of them with:
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

	"efl/internal/cache"
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
