package sim

import (
	"fmt"
	"math"
	"sync"

	"efl/internal/bus"
	"efl/internal/cache"
	"efl/internal/cpu"
	"efl/internal/efl"
	"efl/internal/isa"
	"efl/internal/memctrl"
	"efl/internal/metrics"
	"efl/internal/rng"
	"efl/internal/trace"
)

// ctlState tracks where a core is in its current shared transaction.
type ctlState int

const (
	stReady    ctlState = iota // can execute instructions
	stWaitBus                  // request queued at the bus arbiter
	stWaitEval                 // bus granted; LLC lookup completes at wakeAt
	stWaitEAB                  // evicting miss stalled on the EFL counter
	stWaitMem                  // blocking read queued at the memory controller
	stWaitWake                 // resumes unconditionally at wakeAt
	stDone                     // program finished
	stIdle                     // no program on this core
)

// coreCtl is the simulator-side wrapper of one core.
type coreCtl struct {
	id    int
	core  *cpu.Core // nil for idle cores
	state ctlState

	wakeAt   int64        // stWaitEval / stWaitEAB / stWaitWake
	req      cpu.Request  // transaction being processed
	issuedAt int64        // when req was issued (stall accounting)
	evalAt   int64        // when the LLC lookup completed (EAB wait basis)
	lk       cache.Lookup // fused LLC lookup result, carried across an EAB stall
	lvl      int          // hierarchy walk cursor: index into mids, len(mids) = last level

	llcMask cache.WayMask
	owner   int

	analysisBusWait int64 // phantom-contender cycles charged (analysis mode)

	// The core's stall stream (stream.go), on non-coherent platforms: its
	// producer, the record the core is at, the clock it resumed at after
	// the previous record, and the index of the record's next request.
	prod    *producer
	rec     *stall
	resumed int64
	nextReq int

	// acct attributes every stall cycle of this core's clock to the shared
	// resource that consumed it. The stall segments of one transaction tile
	// [issue, resume] exactly — bus wait, then the granted slot plus LLC
	// lookup, then an optional EAB stall, then an optional memory wait — so
	// together with the pipeline's own execute counter the categories sum
	// to the core's total cycles (the auditor's first invariant). The
	// Execute slot is filled from cpu.Core at collection time.
	acct metrics.CycleAccount
	// maxReadLat is the largest end-to-end memory-read latency this core
	// observed (queueing+service at deployment, the UBD charge at
	// analysis); the auditor compares it against memctrl.UpperBoundDelay.
	maxReadLat int64
}

// CoreResult is the per-core outcome of a run.
type CoreResult struct {
	Active bool
	Cycles int64
	Instrs uint64
	IPC    float64
	IL1    cache.Stats
	DL1    cache.Stats
	Pipe   cpu.Stats
	EFL    efl.Stats
	// AnalysisBusWait is the total phantom bus contention charged
	// (analysis mode only).
	AnalysisBusWait int64
	// Attribution decomposes Cycles by consuming resource; the categories
	// sum to Cycles exactly (auditor invariant A1). Zero for idle cores.
	Attribution metrics.CycleAccount
	// MaxReadLatency is the largest end-to-end memory-read latency the
	// core observed (0 when it never read memory). Deployment values must
	// never exceed memctrl.UpperBoundDelay (auditor invariant A2).
	MaxReadLatency int64
}

// LevelStats is one hierarchy level's aggregated cache statistics: level 0
// sums the active cores' IL1+DL1 pairs, shared levels report their single
// instance.
type LevelStats struct {
	Name   string
	Shared bool
	Stats  cache.Stats
}

// Result is the outcome of one complete run.
type Result struct {
	PerCore     []CoreResult
	Bus         bus.Stats
	Mem         memctrl.Stats
	TotalCycles int64 // slowest active core

	// PerLevel reports every hierarchy level generically, keyed by level
	// name and ordered from L1 outward; the last entry is the LLC.
	PerLevel []LevelStats

	// Latency distributions of the run's shared resources (power-of-two
	// buckets; value copies, so Result stays allocation-free to fill).
	BusWaitHist  metrics.Histogram // per-grant arbitration waits
	MemReadHist  metrics.Histogram // end-to-end blocking-read latencies
	EFLStallHist metrics.Histogram // per-eviction EAB waits, all cores merged
}

// Multicore is the assembled platform. Construct with New, execute runs
// with Run (or the allocation-free RunInto); each run starts from a fresh
// state with new cache RIIs (the per-run randomisation the MBPTA protocol
// requires).
type Multicore struct {
	cfg    Config
	rnd    rng.Stream
	llc    *cache.Cache
	bus    *bus.Bus
	mc     *memctrl.Controller
	ac     *efl.AccessControl
	cores  []*coreCtl
	progs  []*isa.Program
	tracer *trace.Buffer

	// Hierarchy state beyond the default two levels. mids holds the shared
	// intermediate levels (empty on the default layout, where every walk
	// goes straight to the LLC); midMask/shLat are the precomputed per-level
	// way masks and lookup latencies (shLat[i] is shared level i's latency,
	// the last entry being the LLC's — on the default layout just
	// [LLCHitCycles]). levSpecs caches cfg.levels() for stats collection.
	mids     []cache.Level
	midMask  []cache.WayMask
	shLat    []int64
	levSpecs []cache.LevelSpec

	// coh is the MSI directory for shared-data lines; nil unless
	// cfg.SharedDataBytes enables the coherence layer. cohDropTo is the
	// fault-injection hook: invalidations addressed to that core are
	// dropped before reaching its DL1 (-1 = healthy).
	coh       *cohDir
	cohDropTo int

	// Incrementally maintained next-event candidates. The event loop
	// dispatches millions of events per run; rescanning every core, CRG
	// and shared resource on each iteration was the single largest cost
	// of the scheduler, so each candidate is updated only when the
	// corresponding structure changes:
	//
	//   evCore[i]  — core i's next event, never when it has none: while
	//                stReady its Clock, or on a streamed core the start
	//                clock of its next stall record (both of the core
	//                class); its wakeAt in a timed wait (the wake class,
	//                marked wake)
	//   evCRG[i]   — core i's CRG next fire time, never when inactive;
	//                scanned only when crgs is set
	//   evBus/evMC — next grant/issue time, never when idle
	//
	// Events dispatch in (time, class) order with the classes core, CRG,
	// wake, MC, bus, the lowest core id first within a class — the order
	// of the original rescanning loop, which keeps PRNG draw order and
	// therefore results bit-identical. A core whose next candidate stays
	// strictly below every other one is dispatched again without a scan.
	evCore []coreEvent
	evCRG  []int64
	evBus  int64
	evMC   int64
	crgs   bool // some core has a CRG (analysis mode with EFL on)

	// watchdog is the per-job cycle budget (0 = disabled); see SetWatchdog.
	// faulted records whether a fault plan is armed; see fault.go.
	watchdog int64
	faulted  bool

	// streaming is set while a run reads its cores' stall streams, and
	// producers counts the running producer goroutines (stream.go).
	streaming bool
	producers sync.WaitGroup
}

// never is the sentinel for "no pending event".
const never = int64(math.MaxInt64)

// coreEvent is a core's next-event candidate: its time and its dispatch
// class, which the core's state determines (see noteCore).
type coreEvent struct {
	t    int64
	wake bool // a timed wait's wake-up, not the core's own step
}

// SetTracer attaches an event buffer; nil detaches. The buffer accumulates
// across Run calls until the caller resets it, so single-run traces should
// call buf.Reset() between runs.
func (m *Multicore) SetTracer(buf *trace.Buffer) { m.tracer = buf }

// emit records a trace event when a tracer is attached.
func (m *Multicore) emit(cycle int64, core int, kind trace.Kind, addr uint64, arg int64) {
	if m.tracer != nil {
		m.tracer.Add(trace.Event{Cycle: cycle, Core: int16(core), Kind: kind, Addr: addr, Arg: arg})
	}
}

// New builds a platform running progs (indexed by core; nil entries are
// idle cores). In analysis mode exactly the AnalysedCore entry must be
// non-nil. seed determines every random draw of the platform.
//
// New allocates the shared structures and the per-core shells, then ends
// in Reuse, which builds the cores and ends in Rewind, which derives every
// PRNG stream from seed: a fresh, a pooled and a rewound platform take the
// same path to their first run.
func New(cfg Config, progs []*isa.Program, seed uint64) (*Multicore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	analysed := -1
	if cfg.Mode == efl.Analysis {
		analysed = cfg.AnalysedCore
	}
	ac, err := efl.NewAccessControl(cfg.Cores, cfg.MID, cfg.Mode, analysed, unseeded())
	if err != nil {
		return nil, err
	}
	m := &Multicore{
		cfg:       cfg,
		rnd:       unseeded(),
		llc:       cache.New(cfg.llcConfig(), unseeded()),
		bus:       bus.New(cfg.BusSlotCycles, unseeded()),
		mc:        memctrl.New(cfg.MemCycles, cfg.MemSlotCycles, cfg.Cores),
		ac:        ac,
		cores:     make([]*coreCtl, cfg.Cores),
		progs:     make([]*isa.Program, cfg.Cores),
		levSpecs:  cfg.levels(),
		cohDropTo: -1,
		evCore:    make([]coreEvent, cfg.Cores),
		evCRG:     make([]int64, cfg.Cores),
	}
	for i := range m.cores {
		m.crgs = m.crgs || ac.CRG(i) != nil
	}
	if mids := cfg.midSpecs(); len(mids) > 0 {
		m.mids = make([]cache.Level, len(mids))
		m.midMask = make([]cache.WayMask, len(mids))
		for i, s := range mids {
			m.mids[i] = cache.Level{Spec: s, Cache: cache.New(s.Config(cfg.LineBytes), unseeded())}
			m.midMask[i] = cache.FullMask(s.Ways)
		}
	}
	m.shLat = make([]int64, len(m.levSpecs)-1)
	for i := range m.shLat {
		m.shLat[i] = m.levSpecs[i+1].LatencyCycles
	}
	if cfg.coherent() {
		m.coh = newCohDir(m)
	}
	for i := range m.cores {
		ctl := &coreCtl{id: i, llcMask: cfg.llcMask(i), owner: -1}
		if cfg.PartitionWays != nil {
			ctl.owner = i
		}
		m.cores[i] = ctl
	}
	if err := m.Reuse(progs, seed); err != nil {
		return nil, err
	}
	return m, nil
}

// unseeded is the stream a structure is built with before Rewind derives
// its real one from the platform seed.
func unseeded() rng.Stream { return rng.New(0) }

// Reuse swaps progs in for the platform's program set and rewinds it
// under seed: the result is bit-identical to New(m.Config(), progs, seed)
// (pinned by TestReuseMatchesFresh), which is how New itself finishes.
// Cores that stay active keep their core, machine and L1s, re-targeted
// in place, so swapping program sets allocates nothing; cores that
// become active get new ones, seeded by Rewind like every other
// structure. Every core interprets afterwards: replay traces are
// attached by Pool.Get.
// Campaign code reuses one platform per (worker, Config) through Pool
// instead of constructing thousands.
func (m *Multicore) Reuse(progs []*isa.Program, seed uint64) error {
	cfg := m.cfg
	if len(progs) > cfg.Cores {
		return fmt.Errorf("sim: %d programs for %d cores", len(progs), cfg.Cores)
	}
	if cfg.Mode == efl.Analysis {
		for i, p := range progs {
			if (p != nil) != (i == cfg.AnalysedCore) {
				return fmt.Errorf("sim: analysis mode requires exactly the analysed core (%d) to have a program", cfg.AnalysedCore)
			}
		}
	}
	clear(m.progs)
	copy(m.progs, progs)
	for i, ctl := range m.cores {
		if m.progs[i] == nil {
			ctl.core = nil
			continue
		}
		if cfg.PartitionWays != nil && cfg.PartitionWays[i] == 0 {
			return fmt.Errorf("sim: core %d runs a program but has a 0-way partition", i)
		}
		if ctl.core != nil {
			// The core stays active: re-target its machine in place and
			// detach any replay trace of its previous program.
			if err := ctl.core.M.Load(m.progs[i]); err != nil {
				return err
			}
			ctl.core.SetReplay(nil)
			continue
		}
		machine, err := isa.NewMachine(m.progs[i])
		if err != nil {
			return err
		}
		il1 := cache.New(cfg.l1Config(fmt.Sprintf("IL1-%d", i)), unseeded())
		dl1 := cache.New(cfg.l1Config(fmt.Sprintf("DL1-%d", i)), unseeded())
		ctl.core = cpu.New(i, machine, il1, dl1)
		ctl.core.BranchPenalty = cfg.BranchPenalty
		ctl.core.WriteThrough = cfg.DL1WriteThrough
		if m.coh != nil {
			ctl.core.SharedLimit = isa.DataBase + uint64(cfg.SharedDataBytes)
			ctl.core.Coh = m.coh
		} else if ctl.prod == nil {
			ctl.prod = newProducer(m.producers.Done)
		}
	}
	m.Rewind(seed)
	return nil
}

// Rewind re-derives every PRNG stream of the platform from seed, leaving
// it as New(m.Config(), progs, seed) would for its current programs
// (pinned by TestRewindMatchesFresh) without allocating. The fork order
// below is the one rule that fixes a sample's bits: the LLC, the bus, the
// EFL fabric, the shared intermediate levels, then the IL1/DL1 pair of
// every core that runs a program. Run state (caches, machines, pipeline,
// event candidates) is rewound by the reset every RunInto performs, so
// Rewind only needs to rewind what reset does not: the seed-derived
// streams, plus any fault plan or watchdog budget left by the previous
// job.
func (m *Multicore) Rewind(seed uint64) {
	m.DisarmFaults()
	m.watchdog = 0

	m.rnd.Reseed(seed)
	m.llc.Reseed(m.rnd.Uint64())
	m.bus.Reseed(m.rnd.Uint64())
	m.ac.Reseed(m.rnd.Uint64())
	m.ac.SetFixed(m.cfg.EFLFixedMID)
	for i := range m.mids {
		m.mids[i].Reseed(m.rnd.Uint64())
	}
	for _, ctl := range m.cores {
		if ctl.core != nil {
			ctl.core.IL1.Reseed(m.rnd.Uint64())
			ctl.core.DL1.Reseed(m.rnd.Uint64())
		}
	}
}

// Config returns the platform configuration.
func (m *Multicore) Config() Config { return m.cfg }

// noteCore refreshes core ctl's next-event candidate from its state.
func (m *Multicore) noteCore(ctl *coreCtl) {
	e := coreEvent{t: never}
	switch ctl.state {
	case stReady:
		if m.streaming {
			e.t = ctl.resumed + ctl.rec.start
		} else {
			e.t = ctl.core.Clock
		}
	case stWaitEval, stWaitEAB, stWaitWake:
		e = coreEvent{t: ctl.wakeAt, wake: true}
	}
	m.evCore[ctl.id] = e
}

// noteCRG refreshes core i's CRG fire-time candidate.
func (m *Multicore) noteCRG(i int) {
	if c := m.ac.CRG(i); c != nil {
		m.evCRG[i] = c.NextFire()
	} else {
		m.evCRG[i] = never
	}
}

// busRequest enqueues a bus request and refreshes the grant candidate.
func (m *Multicore) busRequest(r bus.Request) {
	m.bus.Request(r)
	m.evBus = m.bus.NextGrantTime()
}

// mcRequest enqueues a memory request and refreshes the issue candidate.
func (m *Multicore) mcRequest(r memctrl.Request) {
	m.mc.Request(r)
	m.evMC = m.mc.NextStartTime()
}

// reset rewinds everything for a fresh run: machines, pipeline state,
// caches (new RIIs), bus, memory controller, EFL fabric and the cached
// event candidates. It saves each streamed core's L1 carries first, for
// the rollback of a failed run.
func (m *Multicore) reset() {
	m.streaming = false
	m.llc.NewRun()
	m.llc.ResetStats()
	for i := range m.mids {
		m.mids[i].NewRun()
		m.mids[i].ResetStats()
	}
	if m.coh != nil {
		m.coh.reset()
	}
	m.bus.Reset()
	m.mc.Reset()
	m.ac.Reset()
	for _, ctl := range m.cores {
		ctl.wakeAt = 0
		ctl.issuedAt = 0
		ctl.evalAt = 0
		ctl.analysisBusWait = 0
		ctl.lvl = 0
		ctl.acct.Reset()
		ctl.maxReadLat = 0
		if ctl.core != nil {
			if p := ctl.prod; p != nil {
				p.carry = [2]cache.Carry{ctl.core.IL1.SaveCarry(), ctl.core.DL1.SaveCarry()}
			}
			ctl.core.Reset()
			ctl.state = stReady
		} else {
			ctl.state = stIdle
		}
		m.noteCore(ctl)
	}
	for i := range m.evCRG {
		m.noteCRG(i)
	}
	m.evBus = never
	m.evMC = never
}

// analysisCore reports whether ctl hosts the task under analysis.
func (m *Multicore) analysisCore(ctl *coreCtl) bool {
	return m.cfg.Mode == efl.Analysis && ctl.id == m.cfg.AnalysedCore
}

// Run executes one complete run (all programs to completion) and returns
// per-core and platform statistics.
func (m *Multicore) Run() (*Result, error) {
	res := &Result{}
	if err := m.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run with a caller-owned result buffer: res's slices are
// reused when large enough, so repeated-measurement campaigns (MBPTA
// collects hundreds of runs per configuration) allocate nothing per run.
// Every platform, analysis or deployment, runs the one event loop
// (generalAdvance); a non-coherent platform's cores feed it stall streams
// (stream.go). Every producer has exited when RunInto returns or panics,
// and a producer's panic is raised again here.
func (m *Multicore) RunInto(res *Result) error {
	m.reset()
	// Effective cycle limit: the configured ceiling, tightened by the
	// runner watchdog budget when one is armed. Exceeding the budget is a
	// deterministic kill (ErrWatchdog), independent of wall-clock time.
	limit := m.effectiveLimit()
	defer m.join()
	if m.coh == nil {
		m.stream(limit)
	}
	err := m.generalAdvance(limit)
	m.join()
	if err != nil {
		m.rollback()
		return err
	}
	m.collectInto(res)
	return nil
}

// Dispatch classes of the general loop's candidates, in their priority at
// equal times: core execution and wakes create bus/MC arrivals, so they
// must run before grants/serves at the same cycle; CRG evictions apply
// before LLC lookups at the same cycle (conservative).
const (
	clsCore = iota
	clsCRG
	clsWake
	clsMC
	clsBus
)

// generalAdvance is the event loop of every run: every core, CRG, bus
// grant and memory-controller issue is a candidate event. It runs until
// every core has finished or an error occurs.
func (m *Multicore) generalAdvance(limit int64) error {
	// The bus is held for the arbitration slot only; the LLC itself is
	// pipelined, so its 10-cycle access latency follows the grant without
	// blocking other transactions.
	hold := m.cfg.BusSlotCycles
	for {
		// The least core candidate by (time, class, id), and the least
		// time among the other cores' candidates (part of the run-ahead
		// and re-dispatch bound below). Strict-less comparisons keep the
		// lowest core id on ties.
		core, coreIdx, tCore2 := coreEvent{t: never}, -1, never
		for i, e := range m.evCore {
			if e.t < core.t || e.t == core.t && core.wake && !e.wake {
				tCore2 = core.t
				core, coreIdx = e, i
			} else if e.t < tCore2 {
				tCore2 = e.t
			}
		}
		tCRG, crgIdx := never, -1
		if m.crgs {
			for i, t := range m.evCRG {
				if t < tCRG {
					tCRG, crgIdx = t, i
				}
			}
		}
		tBus := m.evBus
		tMC := m.evMC

		// Done? (CRG events alone do not keep a run alive: the analysis
		// run ends when the analysed task halts.)
		if core.t == never && tBus == never && tMC == never {
			allDone := true
			for _, ctl := range m.cores {
				if ctl.state != stDone && ctl.state != stIdle {
					allDone = false
				}
			}
			if allDone {
				return nil
			}
			return fmt.Errorf("sim: deadlock: no events but cores not done")
		}

		now, cls := core.t, clsCore
		if core.wake {
			cls = clsWake
		}
		if tCRG < now || tCRG == now && cls == clsWake {
			now, cls = tCRG, clsCRG
		}
		if tMC < now {
			now, cls = tMC, clsMC
		}
		if tBus < now {
			now, cls = tBus, clsBus
		}
		if now > limit {
			return m.limitExceeded(limit)
		}

		switch cls {
		case clsCore, clsWake:
			// Dispatch the core, then again without a rescan while its
			// new candidate stays strictly below every other one and
			// inside the limit: the scan would pick it next anyway. Its
			// own dispatch can queue bus or memory-controller work, so
			// those two candidates are re-read each time round.
			ctl := m.cores[coreIdx]
			for otherMin := min(tCore2, tCRG, tBus, tMC); ; {
				var err error
				switch {
				case ctl.state != stReady:
					m.wake(ctl)
				case m.streaming:
					err = m.commitStall(ctl)
				default:
					err = m.runAhead(ctl, otherMin, limit)
				}
				if err != nil {
					return err
				}
				m.noteCore(ctl)
				otherMin = min(tCore2, tCRG, m.evBus, m.evMC)
				if t := m.evCore[coreIdx].t; t >= otherMin || t > limit {
					break
				}
			}
		case clsCRG:
			m.fireCRG(crgIdx)
		case clsMC:
			req, done := m.mc.Serve()
			if m.mc.HasWaiters() {
				m.evMC = m.mc.NextStartTime()
			} else {
				m.evMC = never
			}
			if req.Kind == memctrl.Read {
				ctl := m.cores[req.Core]
				lat := done - req.Arrival
				m.memRead(ctl, done, lat)
				m.noteCore(ctl)
				m.emit(done, req.Core, trace.EvMemRead, 0, lat)
			} else {
				m.emit(now, req.Core, trace.EvMemWrite, 0, 0)
			}
		default: // clsBus
			win, at := m.bus.Grant(hold)
			if m.bus.HasWaiters() {
				m.evBus = m.bus.NextGrantTime()
			} else {
				m.evBus = never
			}
			ctl := m.cores[win.Core]
			m.granted(ctl, at, at-win.Arrival)
			m.noteCore(ctl)
			m.emit(at, win.Core, trace.EvBusGrant, ctl.req.Addr, at-win.Arrival)
		}
	}
}

// runAhead executes ctl, a ready core of a coherent platform dispatched at
// its clock, through its steps while they stay private and strictly below
// otherMin (every other candidate) and the cycle limit. Its steps are not
// private in time: a peer's upgrade invalidates lines in its DL1 and its
// shared-window accesses write the directory (Coh.Touch), so it runs in
// lockstep with every other event. A step that needs the platform — a
// shared transaction, the halt, or the instruction-ceiling error — starts
// below otherMin, so it commits at once.
func (m *Multicore) runAhead(ctl *coreCtl, otherMin, limit int64) error {
	bound := min(limit, otherMin-1)
	need := ctl.core.Step()
	for m.private(ctl, need) {
		if ctl.core.Clock > bound {
			return nil
		}
		need = ctl.core.Step()
	}
	return m.commitStep(ctl, need, ctl.core.Clock)
}

// private reports whether the step of ctl that returned need is done
// without the platform: it retired an instruction within the ceiling.
func (m *Multicore) private(ctl *coreCtl, need cpu.Need) bool {
	return need == cpu.NeedNone && ctl.core.Retired() <= m.cfg.MaxInstrPerCore
}

// commitStall commits the stall record of ctl, a streamed core dispatched
// at the record's start clock: its step ended at the resume clock plus
// the record's end offset.
func (m *Multicore) commitStall(ctl *coreCtl) error {
	ctl.prod.committed++
	ctl.nextReq = 0
	return m.commitStep(ctl, cpu.Need(ctl.rec.need), ctl.resumed+ctl.rec.end)
}

// commitStep performs the platform side of a step that returned need and
// was not private, ending at clock t: the instruction-ceiling error, the
// halt, or the issue of the first pending shared transaction.
func (m *Multicore) commitStep(ctl *coreCtl, need cpu.Need, t int64) error {
	switch need {
	case cpu.NeedNone:
		return fmt.Errorf("sim: core %d exceeded %d instructions", ctl.id, m.cfg.MaxInstrPerCore)
	case cpu.NeedHalt:
		if err := ctl.core.Fault(); err != nil {
			return fmt.Errorf("sim: core %d: %w", ctl.id, err)
		}
		// A streamed core's clock counts only its own cycles until here.
		ctl.core.Clock = t
		ctl.state = stDone
		m.emit(t, ctl.id, trace.EvCoreHalt, 0, int64(ctl.core.Retired()))
	case cpu.NeedLLC:
		m.issueRequest(ctl, t)
	default:
		panic("sim: a stall past the cycle limit was dispatched")
	}
	return nil
}

// issueRequest starts the core's next shared transaction at cycle t.
func (m *Multicore) issueRequest(ctl *coreCtl, t int64) {
	if m.streaming {
		ctl.req = ctl.rec.req[ctl.nextReq]
		ctl.nextReq++
	} else {
		ctl.req = ctl.core.PopRequest()
	}
	ctl.issuedAt = t
	ctl.lvl = 0
	if m.analysisCore(ctl) {
		// Worst-case contention envelope: lottery against Ncores-1
		// always-ready phantom contenders, each holding the bus for one
		// arbitration slot.
		wait := bus.AnalysisDelay(m.rnd, m.cfg.Cores-1, m.cfg.BusSlotCycles)
		ctl.analysisBusWait += wait
		m.granted(ctl, t+wait, wait)
		return
	}
	m.busRequest(bus.Request{Core: ctl.id, Arrival: t})
	ctl.state = stWaitBus
}

// granted charges ctl the bus slot it won at cycle at after wait cycles of
// arbitration — a real grant at deployment, the phantom-contender draw at
// analysis. A coherence upgrade broadcasts its invalidation in the slot
// and is done when the slot ends, the whole transaction charged to the
// coherence category; no cache level is consulted, the line being already
// resident in the writer's DL1. Every other request looks up the first
// shared level when the slot ends.
func (m *Multicore) granted(ctl *coreCtl, at, wait int64) {
	slot := m.cfg.BusSlotCycles
	if ctl.req.Kind == cpu.ReqUpgrade {
		m.coh.upgrade(ctl.id, ctl.req.Addr, at)
		ctl.acct.Add(metrics.Coherence, wait+slot)
		ctl.state = stWaitWake
		ctl.wakeAt = at + slot
		ctl.evalAt = ctl.wakeAt
		return
	}
	ctl.state = stWaitEval
	ctl.wakeAt = at + slot + m.shLat[0]
	ctl.evalAt = ctl.wakeAt
	ctl.acct.Add(metrics.BusWait, wait)
	ctl.acct.Add(metrics.BusSlot, slot)
	ctl.acct.Add(metrics.LLCLookup, m.shLat[0])
}

// wake dispatches a timed wake-up.
func (m *Multicore) wake(ctl *coreCtl) {
	switch ctl.state {
	case stWaitEval:
		m.evalLevel(ctl, ctl.wakeAt)
	case stWaitEAB:
		waited := ctl.wakeAt - ctl.evalAt
		m.performEviction(ctl, ctl.wakeAt, waited)
	case stWaitWake:
		m.finishRequest(ctl, ctl.wakeAt)
	default:
		panic("sim: wake in unexpected state")
	}
}

// evalLLC processes the LLC lookup of ctl.req completing at cycle t.
// Hits always proceed (EoM hits are stateless, §3.3). Every miss of a
// time-randomised LLC selects a uniformly random victim regardless of
// valid bits (the EoM design), so every miss is an eviction event and is
// subject to the EFL eviction-allowed bit. Only the TD ablation platform
// fills invalid ways without evicting.
//
// The lookup is fused: one placement hash and one tag scan (cache.Lookup)
// serve both the hit path and the fill, where the pre-Lookup/Access split
// paid the hash and the scan twice per transaction.
func (m *Multicore) evalLLC(ctl *coreCtl, t int64) {
	write := ctl.req.Kind != cpu.ReqFetch
	lk := m.llc.Lookup(ctl.req.Addr, ctl.llcMask)
	switch {
	case lk.Hit:
		m.llc.CommitHit(lk, write)
		m.emit(t, ctl.id, trace.EvLLCHit, ctl.req.Addr, 0)
		m.finishRequest(ctl, t)
	case ctl.req.Kind == cpu.ReqWriteThrough && !m.cfg.WTAllocate:
		// Write-through, no-write-allocate: the LLC is untouched and the
		// store is forwarded to memory as a posted write.
		if m.cfg.Mode == efl.Deployment {
			m.mcRequest(memctrl.Request{Core: ctl.id, Arrival: t, Kind: memctrl.Write})
		}
		m.finishRequest(ctl, t)
	case m.cfg.Policy == cache.TimeDeterministic && lk.FreeWay:
		// Conventional fill without eviction (ablation platform only).
		m.llc.Fill(lk, write, ctl.llcMask, ctl.owner)
		m.afterFill(ctl, t)
	default:
		// Evicting miss: subject to the EFL eviction-allowed bit.
		m.emit(t, ctl.id, trace.EvLLCMiss, ctl.req.Addr, 0)
		ctl.lk = lk
		unit := m.ac.Unit(ctl.id)
		allowed := unit.EvictionAllowedAt(t)
		if allowed > t {
			ctl.state = stWaitEAB
			ctl.wakeAt = allowed
			ctl.evalAt = t
			ctl.acct.Add(metrics.EABStall, allowed-t)
			m.emit(t, ctl.id, trace.EvEFLStall, ctl.req.Addr, allowed-t)
			return
		}
		m.performEviction(ctl, t, 0)
	}
}

// performEviction executes the gated eviction+fill at cycle t, completing
// the Lookup saved by evalLLC (the set index survives an EAB stall; victim
// state is re-read at fill time, so CRG force-misses that landed during
// the stall are observed exactly as a fresh access would).
func (m *Multicore) performEviction(ctl *coreCtl, t int64, waited int64) {
	write := ctl.req.Kind != cpu.ReqFetch
	res := m.llc.Fill(ctl.lk, write, ctl.llcMask, ctl.owner)
	m.ac.Unit(ctl.id).RecordEviction(t, waited)
	if res.EvictedDirty && m.cfg.Mode == efl.Deployment {
		// Posted writeback of the dirty LLC victim: consumes memory
		// bandwidth, nobody waits. (At analysis time the analysed core's
		// memory accesses are charged the UBD, which covers any such
		// bandwidth by construction.)
		m.mcRequest(memctrl.Request{Core: ctl.id, Arrival: t, Kind: memctrl.Write})
	}
	m.afterFill(ctl, t)
}

// afterFill continues a transaction once the LLC line is allocated:
// writebacks complete (the line data came from the core), fetches must
// read the line from memory.
func (m *Multicore) afterFill(ctl *coreCtl, t int64) {
	if ctl.req.Kind == cpu.ReqWriteback {
		m.finishRequest(ctl, t)
		return
	}
	if m.analysisCore(ctl) {
		ubd := m.mc.UpperBoundDelay()
		m.memRead(ctl, t+ubd, ubd)
		return
	}
	m.mcRequest(memctrl.Request{Core: ctl.id, Arrival: t, Kind: memctrl.Read})
	ctl.state = stWaitMem
}

// memRead charges ctl a blocking memory read of lat cycles completing at
// cycle done — the controller's queueing and service at deployment, the
// UBD at analysis.
func (m *Multicore) memRead(ctl *coreCtl, done, lat int64) {
	ctl.state = stWaitWake
	ctl.wakeAt = done
	ctl.acct.Add(metrics.MemWait, lat)
	if lat > ctl.maxReadLat {
		ctl.maxReadLat = lat
	}
}

// finishRequest completes the current transaction at cycle t and either
// issues the core's next pending transaction or resumes execution: a
// streamed core at its next stall record.
func (m *Multicore) finishRequest(ctl *coreCtl, t int64) {
	if m.streaming {
		if ctl.nextReq < int(ctl.rec.nreq) {
			m.issueRequest(ctl, t)
			return
		}
		ctl.resumed = t
		ctl.rec = ctl.prod.next()
	} else {
		if ctl.core.HasPending() {
			m.issueRequest(ctl, t)
			return
		}
		ctl.core.Resume(t)
	}
	ctl.state = stReady
}

// fireCRG performs one artificial eviction of core crgIdx's generator.
func (m *Multicore) fireCRG(crgIdx int) {
	c := m.ac.CRG(crgIdx)
	t := c.NextFire()
	m.llc.ForceEvict()
	c.Fire(t)
	m.evCRG[crgIdx] = c.NextFire()
	m.emit(t, crgIdx, trace.EvCRGEvict, 0, 0)
}

// collectInto gathers the run's results into res, reusing its buffers.
func (m *Multicore) collectInto(res *Result) {
	if cap(res.PerCore) < len(m.cores) {
		res.PerCore = make([]CoreResult, len(m.cores))
	}
	res.PerCore = res.PerCore[:len(m.cores)]
	nl := len(m.levSpecs)
	if cap(res.PerLevel) < nl {
		res.PerLevel = make([]LevelStats, nl)
	}
	res.PerLevel = res.PerLevel[:nl]
	for i := range res.PerLevel {
		res.PerLevel[i] = LevelStats{Name: m.levSpecs[i].Name, Shared: m.levSpecs[i].Shared}
	}
	for i := range m.mids {
		res.PerLevel[1+i].Stats = m.mids[i].Stats()
	}
	res.PerLevel[nl-1].Stats = m.llc.Stats()
	res.Bus = m.bus.Stats()
	res.Mem = m.mc.Stats()
	res.BusWaitHist = m.bus.WaitHistogram()
	res.MemReadHist = m.mc.ReadLatencyHistogram()
	res.EFLStallHist.Reset()
	res.TotalCycles = 0
	for i, ctl := range m.cores {
		cr := CoreResult{}
		// EFL stats are collected for every core, active or not: in
		// analysis mode the co-runner cores' units count CRG evictions, and
		// the auditor checks their eviction rates from the Result alone.
		cr.EFL = m.ac.Unit(i).Stats()
		stalls := m.ac.Unit(i).StallHistogram()
		res.EFLStallHist.Merge(&stalls)
		if ctl.core != nil {
			cr.Active = true
			cr.Cycles = ctl.core.Clock
			cr.Instrs = ctl.core.Retired()
			if cr.Cycles > 0 {
				cr.IPC = float64(cr.Instrs) / float64(cr.Cycles)
			}
			cr.IL1 = ctl.core.IL1.Stats()
			cr.DL1 = ctl.core.DL1.Stats()
			addCacheStats(&res.PerLevel[0].Stats, cr.IL1)
			addCacheStats(&res.PerLevel[0].Stats, cr.DL1)
			cr.Pipe = ctl.core.Stats()
			cr.AnalysisBusWait = ctl.analysisBusWait
			cr.Attribution = ctl.acct
			cr.Attribution[metrics.Execute] = ctl.core.ExecCycles()
			cr.MaxReadLatency = ctl.maxReadLat
			if cr.Cycles > res.TotalCycles {
				res.TotalCycles = cr.Cycles
			}
		}
		res.PerCore[i] = cr
	}
}

// addCacheStats accumulates s into dst (the per-level aggregation of the
// private L1 pairs).
func addCacheStats(dst *cache.Stats, s cache.Stats) {
	dst.Accesses += s.Accesses
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
	dst.ForcedEvict += s.ForcedEvict
	dst.Flushes += s.Flushes
	dst.MemoHits += s.MemoHits
}
