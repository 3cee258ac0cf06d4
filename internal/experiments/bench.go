package experiments

// Performance regression harness. BenchSuite runs the campaign-level and
// hot-path benchmarks programmatically (testing.Benchmark) and returns a
// machine-readable report; `experiments -exp bench -benchout BENCH_SIM.json`
// persists it so successive commits can be compared:
//
//	go run ./cmd/experiments -exp bench -benchout BENCH_SIM.json
//
// The two campaign benchmarks mirror the MBPTA workload (repeated full
// runs of one platform), so runs_per_sec is directly the throughput of an
// analysis campaign and allocs_per_op its per-run allocation count.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/rng"
	"efl/internal/rnghash"
	"efl/internal/sim"
)

// BenchResult is one benchmark's outcome.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport is the full machine-readable benchmark report.
type BenchReport struct {
	GoVersion string        `json:"go_version"`
	GoArch    string        `json:"go_arch"`
	Seed      uint64        `json:"seed"`
	Kernel    string        `json:"kernel"`
	Results   []BenchResult `json:"results"`
}

// JSON renders the report with stable indentation.
func (r *BenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render renders the report as an aligned text table.
func (r *BenchReport) Render() string {
	out := fmt.Sprintf("Benchmark suite (kernel %s, seed %d, %s/%s)\n",
		r.Kernel, r.Seed, r.GoVersion, r.GoArch)
	out += fmt.Sprintf("%-22s %12s %14s %12s %10s\n", "benchmark", "ns/op", "runs/sec", "B/op", "allocs/op")
	for _, b := range r.Results {
		out += fmt.Sprintf("%-22s %12.0f %14.1f %12d %10d\n",
			b.Name, b.NsPerOp, b.RunsPerSec, b.BytesPerOp, b.AllocsPerOp)
	}
	return out
}

// record converts a testing.BenchmarkResult whose op is one simulation
// run (or one micro-operation).
func record(name string, br testing.BenchmarkResult) BenchResult {
	ns := float64(br.NsPerOp())
	perSec := 0.0
	if ns > 0 {
		perSec = 1e9 / ns
	}
	return BenchResult{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     ns,
		RunsPerSec:  perSec,
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
}

// BenchSuite runs the benchmark suite with the kernel identified by code
// (the paper's two-letter identifiers; "CA" is the cache-sensitive default
// passed by cmd/experiments) at the given EFL MID.
func BenchSuite(opt Options, code string, mid int64) (*BenchReport, error) {
	spec, err := bench.ByCode(code)
	if err != nil {
		return nil, err
	}
	prog := spec.Build()
	base := sim.DefaultConfig()
	report := &BenchReport{
		GoVersion: runtime.Version(),
		GoArch:    runtime.GOARCH,
		Seed:      opt.Seed,
		Kernel:    code,
	}

	// Analysis campaign: one EFL run per iteration (the MBPTA inner loop,
	// through RunInto's event loop).
	acfg := base.WithEFL(mid).WithAnalysis(0)
	aprogs := make([]*isa.Program, acfg.Cores)
	aprogs[0] = prog
	am, err := sim.New(acfg, aprogs, opt.Seed)
	if err != nil {
		return nil, err
	}
	var ares sim.Result
	report.Results = append(report.Results, record("analysis_run", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := am.RunInto(&ares); err != nil {
				b.Fatal(err)
			}
		}
	})))

	// Deployment campaign: four co-running copies per iteration.
	dcfg := base.WithEFL(mid)
	dprogs := make([]*isa.Program, dcfg.Cores)
	for i := range dprogs {
		dprogs[i] = prog
	}
	dm, err := sim.New(dcfg, dprogs, opt.Seed)
	if err != nil {
		return nil, err
	}
	var dres sim.Result
	report.Results = append(report.Results, record("deployment_run", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := dm.RunInto(&dres); err != nil {
				b.Fatal(err)
			}
		}
	})))

	// Multi-level deployment campaign: the same four co-running copies on
	// the three-level hierarchy (private L1 -> shared L2 -> shared LLC), so
	// the per-level walk's cost relative to the flat layout is tracked.
	mcfg := coherenceConfig(mid, 0)
	mm, err := sim.New(mcfg, dprogs, opt.Seed)
	if err != nil {
		return nil, err
	}
	var mres sim.Result
	report.Results = append(report.Results, record("multilevel_run", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := mm.RunInto(&mres); err != nil {
				b.Fatal(err)
			}
		}
	})))

	// Hot-path micro-benchmarks: one shared-LLC access and one placement
	// hash evaluation.
	llcCfg := cache.Config{
		Name:      "LLC-bench",
		SizeBytes: base.LLCSizeBytes,
		Ways:      base.LLCWays,
		LineBytes: base.LineBytes,
		Policy:    cache.TimeRandomised,
	}
	llc := cache.New(llcCfg, rng.New(opt.Seed))
	mask := cache.FullMask(llcCfg.Ways)
	lines := uint64(2 * llcCfg.SizeBytes / llcCfg.LineBytes)
	report.Results = append(report.Results, record("llc_access", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			la := (uint64(i) * 2654435761) % lines
			llc.Access(la*uint64(llcCfg.LineBytes), i&7 == 0, mask, -1)
		}
	})))

	h := rnghash.New(llcCfg.Sets(), rnghash.NewRII(rng.New(opt.Seed)))
	sink := 0
	report.Results = append(report.Results, record("hash_set", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += h.Set(uint64(i) * 31)
		}
	})))
	_ = sink

	return report, nil
}
