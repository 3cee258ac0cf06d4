package sim

// This file holds the campaign side of the platform: Pool keeps one
// platform per Config (built by New, swapped to new programs by Reuse),
// one recorded replay trace per program image and line size, and an
// optional auditor, and runs analysis campaigns on them. Both campaign
// shapes — the fixed-count CollectAnalysisTimes, seeded once, and the
// converged StreamAnalysisTimes, rewound per run — drive the same audited
// run loop (auditedRuns); only their seeding differs.

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"strconv"

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
	// key is Get's scratch buffer for the configuration key.
	key []byte
	// traces caches one recorded architectural trace per program image
	// and L1 line size (traces are seed-independent, so one recording
	// serves every core, configuration and seed with that line size),
	// least-recently-used first out past poolTraceEntries traces or
	// poolTraceBytes of packed stream.
	traces *lru.Cache[traceKey, pooledTrace]
	// aud, when set, checks every run executed through the pool's
	// collection helpers. The Auditor itself is mutex-guarded, so one
	// auditor is shared across all workers' pools.
	aud *Auditor
	// quarantined counts platforms removed by Quarantine/QuarantineAll.
	quarantined int
}

// traceKey identifies a pooled trace by content: a hash of the program
// image (imageSum) and the L1 line size it was packed for (0: exact).
// Programs built separately from the same source share one trace; a hash
// hit is verified against the image before use.
type traceKey struct {
	sum       uint64
	lineBytes int
}

// pooledTrace is one cached recording: the program image it was
// recorded from, the trace — nil when the recording exceeded its
// instruction ceiling maxInstr, so runs interpret — and that ceiling.
type pooledTrace struct {
	prog     *isa.Program
	tr       *cpu.Trace
	maxInstr uint64
}

// NewPool returns an empty platform pool.
func NewPool() *Pool {
	return &Pool{
		platforms: map[string]*Multicore{},
		traces: lru.New[traceKey, pooledTrace](poolTraceEntries, poolTraceBytes,
			func(e pooledTrace) int64 { return e.tr.Bytes() }),
	}
}

// A pool's replay-trace bounds. Packed kernel traces take 16–200 KiB at
// 16-byte lines (1.4 MiB for all sixteen, against 36.7 MiB unpacked), so
// the byte budget holds every kernel at several line sizes plus replayed
// workloads, and binds before the entry cap does; a program whose trace
// alone exceeds it is re-recorded per campaign instead of cached.
const (
	poolTraceEntries = 256
	poolTraceBytes   = 16 << 20
)

// imageSeed keys imageSum; a hash only picks a cache slot, so any
// per-process seed serves.
var imageSeed = maphash.MakeSeed()

// imageSum hashes the parts of prog that determine its trace: code, data
// image and data-segment size (not its name).
func imageSum(prog *isa.Program) uint64 {
	var h maphash.Hash
	h.SetSeed(imageSeed)
	var buf [512]byte
	b := buf[:0]
	for _, v := range [...]int{len(prog.Code), len(prog.Data), prog.DataSize} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, in := range prog.Code {
		if len(b) > len(buf)-20 {
			h.Write(b)
			b = buf[:0]
		}
		b = append(b, byte(in.Op), in.Rd, in.Rs, in.Rt)
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Target))
	}
	h.Write(b)
	h.Write(prog.Data)
	return h.Sum64()
}

// traceFor returns the pooled trace of prog packed for lineBytes-byte L1
// lines (0: exact), recording it on first use. Programs that do not
// terminate within maxInstr get a nil trace (interpreter fallback); the
// cap violation itself still surfaces through the simulator's
// retired-instruction check either way.
func (p *Pool) traceFor(prog *isa.Program, lineBytes int, maxInstr uint64) *cpu.Trace {
	key := traceKey{imageSum(prog), lineBytes}
	e, ok := p.traces.Get(key)
	if !ok || !e.prog.SameImage(prog) || e.tr == nil && e.maxInstr < maxInstr {
		tr, _ := cpu.RecordTraceFor(prog, maxInstr, lineBytes)
		e = pooledTrace{prog: prog, tr: tr, maxInstr: maxInstr}
		p.traces.Put(key, e)
	}
	return e.tr
}

// replay attaches to each active core the pooled trace of its program,
// packed for the line size the core can elide for (see setReplay).
// Coherent platforms interpret: replay's same-line elision skips the
// access, and with it the per-access coherence Touch.
func (p *Pool) replay(m *Multicore) {
	if m.coh != nil {
		return
	}
	for _, ctl := range m.cores {
		if c := ctl.core; c != nil {
			m.setReplay(ctl, p.traceFor(c.M.Prog, c.ReplayLineBytes(), m.cfg.MaxInstrPerCore))
		}
	}
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

// appendConfigKey appends a fingerprint of cfg to b: every field of
// Config and of its hierarchy levels, in declaration order, without
// allocating (TestConfigKeyCoversEveryField pins that every field counts).
func appendConfigKey(b []byte, c Config) []byte {
	b = appendInts(b, int64(c.Cores), int64(c.L1SizeBytes), int64(c.L1Ways), int64(c.LLCSizeBytes),
		int64(c.LLCWays), int64(c.LineBytes), int64(c.Policy), c.BusSlotCycles, c.LLCHitCycles,
		c.MemCycles, c.MemSlotCycles, c.BranchPenalty, b2i(c.DL1WriteThrough), b2i(c.WTAllocate),
		c.MID, b2i(c.EFLFixedMID), int64(c.Mode), int64(c.AnalysedCore), int64(c.MaxInstrPerCore),
		c.MaxCycles, int64(c.SharedDataBytes), b2i(c.PartitionWays == nil), int64(len(c.PartitionWays)))
	for _, w := range c.PartitionWays {
		b = appendInts(b, int64(w))
	}
	b = appendInts(b, b2i(c.Hierarchy == nil), int64(len(c.Hierarchy)))
	for _, l := range c.Hierarchy {
		b = append(strconv.AppendQuote(b, l.Name), ' ')
		b = appendInts(b, int64(l.SizeBytes), int64(l.Ways), b2i(l.Shared), l.LatencyCycles, int64(l.Policy))
	}
	return b
}

// configKey is appendConfigKey as a string.
func configKey(cfg Config) string { return string(appendConfigKey(nil, cfg)) }

// Get returns a platform for cfg running progs under seed, reusing a
// pooled platform when one with the same Config exists, with the pooled
// trace of its program attached to every active core of a non-coherent
// platform. In steady state — a known Config, programs whose traces are
// pooled — it allocates nothing.
func (p *Pool) Get(cfg Config, progs []*isa.Program, seed uint64) (*Multicore, error) {
	p.key = appendConfigKey(p.key[:0], cfg)
	m, ok := p.platforms[string(p.key)]
	if ok {
		if err := m.Reuse(progs, seed); err != nil {
			return nil, err
		}
	} else {
		var err error
		if m, err = New(cfg, progs, seed); err != nil {
			return nil, err
		}
		p.platforms[string(p.key)] = m
	}
	p.replay(m)
	return m, nil
}

// analysisPlatform returns the pooled platform for prog on core 0 under
// cfg (already forced to analysis mode), seeded with seed and replaying
// the pooled trace of prog.
func (p *Pool) analysisPlatform(cfg Config, prog *isa.Program, seed uint64) (*Multicore, error) {
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = prog
	return p.Get(cfg, progs, seed)
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

// appendInts appends each value, space-terminated, to b.
func appendInts(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = append(strconv.AppendInt(b, v, 10), ' ')
	}
	return b
}

// b2i is 1 for true, 0 for false.
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
