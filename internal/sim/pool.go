package sim

// This file holds the campaign side of the platform: Pool keeps one
// platform per Config (built by New, swapped to new programs by Reuse),
// one recorded replay trace per program and an optional auditor, and runs
// analysis campaigns on them. Both campaign shapes — the fixed-count
// CollectAnalysisTimes, seeded once, and the converged
// StreamAnalysisTimes, rewound per run — drive the same audited run loop
// (auditedRuns); only their seeding differs.

import (
	"context"
	"fmt"

	"efl/internal/cpu"
	"efl/internal/isa"
	"efl/internal/lru"
)

// Pool caches one platform per distinct Config so that campaign workers
// stop paying New per run: the first Get for a configuration constructs
// the platform, later Gets rewind it with Reuse. Results are bit-identical
// either way. A Pool is NOT safe for concurrent use — campaign runners
// hold one Pool per worker.
type Pool struct {
	platforms map[string]*Multicore
	// traces caches one recorded architectural trace per program (traces
	// are seed-independent, so one recording serves every configuration
	// and seed), least-recently-used first out past poolTraceEntries
	// programs or poolTraceBytes of trace. A nil entry marks a program
	// whose recording exceeded the instruction cap; those runs fall back
	// to the interpreter.
	traces *lru.Cache[*isa.Program, *cpu.Trace]
	// aud, when set, checks every run executed through the pool's
	// collection helpers. The Auditor itself is mutex-guarded, so one
	// auditor is shared across all workers' pools.
	aud *Auditor
	// quarantined counts platforms removed by Quarantine/QuarantineAll.
	quarantined int
}

// NewPool returns an empty platform pool.
func NewPool() *Pool {
	return &Pool{
		platforms: map[string]*Multicore{},
		traces:    lru.New[*isa.Program, *cpu.Trace](poolTraceEntries, poolTraceBytes, (*cpu.Trace).Bytes),
	}
}

// A pool's replay-trace bounds. Kernel traces take 0.7–3.9 MiB each, so
// the budget holds all sixteen kernels (~40 MiB) plus a few replayed
// workloads; a program whose trace alone exceeds it is re-recorded per
// campaign instead of cached.
const (
	poolTraceEntries = 256
	poolTraceBytes   = 64 << 20
)

// traceFor returns the pooled architectural trace of prog, recording it on
// first use. Programs that do not terminate within maxInstr get a nil
// trace (interpreter fallback); the cap violation itself still surfaces
// through the simulator's retired-instruction check either way.
func (p *Pool) traceFor(prog *isa.Program, maxInstr uint64) *cpu.Trace {
	tr, ok := p.traces.Get(prog)
	if !ok {
		tr, _ = cpu.RecordTrace(prog, maxInstr)
		p.traces.Put(prog, tr)
	}
	return tr
}

// SetAuditor attaches a soundness auditor to the pool; nil detaches it.
func (p *Pool) SetAuditor(a *Auditor) { p.aud = a }

// AuditRun checks one run against the attached auditor. Without an
// auditor it is a no-op, so call sites audit unconditionally.
func (p *Pool) AuditRun(cfg Config, res *Result) error { return p.aud.CheckRun(cfg, res) }

// Size returns the number of distinct platforms held.
func (p *Pool) Size() int { return len(p.platforms) }

// Quarantine removes the platform pooled for cfg, reporting whether one
// was held. A simulation that errored mid-run (watchdog kill, injected
// fault) leaves its platform in an undefined intermediate state; the
// hardened runner quarantines it so the next Get for the configuration
// constructs a fresh one instead of reusing corrupt hardware state.
func (p *Pool) Quarantine(cfg Config) bool {
	key := configKey(cfg)
	if _, ok := p.platforms[key]; !ok {
		return false
	}
	delete(p.platforms, key)
	p.quarantined++
	return true
}

// QuarantineAll removes every pooled platform, returning how many were
// held. Used when a whole job failed and nothing the worker touched can be
// trusted.
func (p *Pool) QuarantineAll() int {
	n := len(p.platforms)
	clear(p.platforms)
	p.quarantined += n
	return n
}

// Quarantined returns how many platforms this pool has quarantined.
func (p *Pool) Quarantined() int { return p.quarantined }

// configKey fingerprints a Config. Config is a flat value type (plus the
// PartitionWays slice), so the %+v rendering is a faithful identity.
func configKey(cfg Config) string { return fmt.Sprintf("%+v", cfg) }

// Get returns a platform for cfg running progs under seed, reusing a
// pooled platform when one with the same Config exists.
func (p *Pool) Get(cfg Config, progs []*isa.Program, seed uint64) (*Multicore, error) {
	key := configKey(cfg)
	if m, ok := p.platforms[key]; ok {
		if err := m.Reuse(progs, seed); err != nil {
			return nil, err
		}
		return m, nil
	}
	m, err := New(cfg, progs, seed)
	if err != nil {
		return nil, err
	}
	p.platforms[key] = m
	return m, nil
}

// analysisPlatform returns the pooled platform for prog on core 0 under
// cfg (already forced to analysis mode), seeded with seed and replaying
// the pooled trace of prog. Replay removes the interpreter from the run
// loop while keeping every timing decision — and therefore the collected
// times — bit-identical to the interpreted path.
func (p *Pool) analysisPlatform(cfg Config, prog *isa.Program, seed uint64) (*Multicore, error) {
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = prog
	m, err := p.Get(cfg, progs, seed)
	if err != nil {
		return nil, err
	}
	m.setReplay(p.traceFor(prog, cfg.MaxInstrPerCore))
	return m, nil
}

// CollectAnalysisTimes performs runs analysis-mode executions of prog on
// core 0 under cfg and returns the execution times in run order — the
// input MBPTA needs. The platform is seeded once with seed and its PRNG
// streams evolve across runs, so the sample is sequentially defined. ctx
// is checked between runs so an interrupted campaign stops within one
// simulation run; every run is checked by the attached auditor.
func (p *Pool) CollectAnalysisTimes(ctx context.Context, cfg Config, prog *isa.Program, runs int, seed uint64) ([]float64, error) {
	cfg = cfg.WithAnalysis(0)
	m, err := p.analysisPlatform(cfg, prog, seed)
	if err != nil {
		return nil, err
	}
	times := make([]float64, 0, runs)
	if _, err := p.auditedRuns(ctx, m, cfg, runs, func(int) {}, func(t float64) bool {
		times = append(times, t)
		return false
	}); err != nil {
		return nil, err
	}
	return times, nil
}

// StreamAnalysisTimes executes analysis-mode runs of prog one after the
// other on the pooled platform, feeding each run's execution time to emit
// in run order until emit returns true (stop), maxRuns runs have been
// consumed, or ctx is cancelled (checked before every run). Run i is
// rewound to seedFor(i), which is called exactly once per consumed run, so
// the time sequence — and anything a caller derives from it, such as a
// convergence stopping point — depends on the run index alone; nothing
// runs past a stop. Every run is audited like CollectAnalysisTimes's.
// Returns the number of runs consumed (fed to emit).
//
// k is ignored: it was the width of the removed lockstep engine, and the
// parameter goes with the next change to the benchmark harness, which
// still passes it.
func (p *Pool) StreamAnalysisTimes(ctx context.Context, cfg Config, prog *isa.Program, k, maxRuns int, seedFor func(run int) uint64, emit func(t float64) (stop bool)) (int, error) {
	cfg = cfg.WithAnalysis(0)
	m, err := p.analysisPlatform(cfg, prog, 0) // placeholder seed; every run rewinds
	if err != nil {
		return 0, err
	}
	return p.auditedRuns(ctx, m, cfg, maxRuns, func(run int) { m.Rewind(seedFor(run)) }, emit)
}

// auditedRuns is the run loop both campaign shapes share. Until emit
// stops it, maxRuns runs are consumed or ctx is cancelled (checked before
// every run, ahead of any seeding), it seeds run n through seed(n), runs
// m into one reused result, audits the run and feeds the analysed core's
// execution time to emit. Returns the number of runs consumed.
func (p *Pool) auditedRuns(ctx context.Context, m *Multicore, cfg Config, maxRuns int, seed func(run int), emit func(t float64) (stop bool)) (int, error) {
	var res Result
	n := 0
	for n < maxRuns {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		seed(n)
		if err := m.RunInto(&res); err != nil {
			return n, err
		}
		if err := p.aud.CheckRun(cfg, &res); err != nil {
			return n, err
		}
		n++
		if emit(float64(res.PerCore[0].Cycles)) {
			return n, nil
		}
	}
	return n, nil
}
