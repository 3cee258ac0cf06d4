package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/cpu"
	"efl/internal/fault"
	"efl/internal/isa"
	"efl/internal/memctrl"
	"efl/internal/rng"
	"efl/internal/trace"
)

// referenceLoop is the general event loop as it was before a dispatched
// core ran ahead to its next shared transaction: a ready and a wake
// candidate per core, a CRG scan on every platform, and a core batch that
// stops as soon as the core's clock reaches any other candidate. It is
// the reference TestGeneralLoopMatchesReference checks generalAdvance
// against. The loop and its step are kept verbatim; only their candidate
// arrays moved here from Multicore.
type referenceLoop struct {
	m       *Multicore
	evReady []int64
	evWake  []int64
}

// referenceRun is Multicore.run through the reference loop.
func referenceRun(m *Multicore, res *Result) error {
	m.reset()
	limit := m.effectiveLimit()
	r := &referenceLoop{m: m, evReady: make([]int64, len(m.cores)), evWake: make([]int64, len(m.cores))}
	for _, ctl := range m.cores {
		r.noteCore(ctl)
	}
	if err := r.referenceAdvance(limit); err != nil {
		return err
	}
	m.collectInto(res)
	return nil
}

// noteCore refreshes core ctl's next-event candidates from its state.
func (r *referenceLoop) noteCore(ctl *coreCtl) {
	rd, w := never, never
	switch ctl.state {
	case stReady:
		rd = ctl.core.Clock
	case stWaitEval, stWaitEAB, stWaitWake:
		w = ctl.wakeAt
	}
	r.evReady[ctl.id] = rd
	r.evWake[ctl.id] = w
}

// referenceAdvance is the general event loop before run-ahead.
func (r *referenceLoop) referenceAdvance(limit int64) error {
	m := r.m
	// The bus is held for the arbitration slot only; the LLC itself is
	// pipelined, so its 10-cycle access latency follows the grant without
	// blocking other transactions.
	hold := m.cfg.BusSlotCycles
	for {
		// Candidate event times, read from the incrementally maintained
		// caches in one pass. Scan order and strict-less comparisons
		// reproduce the original rescanning loop exactly (lowest core id
		// wins ties). tCore2 tracks the runner-up ready clock for the
		// batching bound below.
		tCore, coreIdx, tCore2 := never, -1, never
		tWake, wakeIdx := never, -1
		tCRG, crgIdx := never, -1
		for i := range r.evReady {
			if t := r.evReady[i]; t < tCore {
				tCore2 = tCore
				tCore, coreIdx = t, i
			} else if t < tCore2 {
				tCore2 = t
			}
			if t := r.evWake[i]; t < tWake {
				tWake, wakeIdx = t, i
			}
			if t := m.evCRG[i]; t < tCRG {
				tCRG, crgIdx = t, i
			}
		}
		tBus := m.evBus
		tMC := m.evMC

		// Done? (CRG events alone do not keep a run alive: the analysis
		// run ends when the analysed task halts.)
		if tCore == never && tWake == never && tBus == never && tMC == never {
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

		// Priority at equal times: core execution and wakes create bus/MC
		// arrivals, so they must run before grants/serves at the same
		// cycle; CRG evictions apply before LLC lookups at the same cycle
		// (conservative).
		min := tCore
		if tWake < min {
			min = tWake
		}
		if tCRG < min {
			min = tCRG
		}
		if tBus < min {
			min = tBus
		}
		if tMC < min {
			min = tMC
		}
		if min > limit {
			return m.limitExceeded(limit)
		}

		switch {
		case tCore == min:
			ctl := m.cores[coreIdx]
			// Batch: keep stepping this core while it stays ready and its
			// clock remains strictly below every other candidate — no
			// other event can interleave, so the scheduler need not be
			// consulted per instruction. The bound is strict: at equal
			// times the outer scan re-resolves priorities exactly as the
			// original loop did.
			otherMin := tCore2
			if tWake < otherMin {
				otherMin = tWake
			}
			if tCRG < otherMin {
				otherMin = tCRG
			}
			if tBus < otherMin {
				otherMin = tBus
			}
			if tMC < otherMin {
				otherMin = tMC
			}
			for {
				if err := r.step(ctl); err != nil {
					return err
				}
				if ctl.state != stReady {
					break
				}
				clk := ctl.core.Clock
				if clk >= otherMin {
					break
				}
				if clk > limit {
					return m.limitExceeded(limit)
				}
			}
			r.noteCore(ctl)
		case tCRG == min:
			m.fireCRG(crgIdx)
		case tWake == min:
			ctl := m.cores[wakeIdx]
			m.wake(ctl)
			r.noteCore(ctl)
		case tMC == min:
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
				r.noteCore(ctl)
				m.emit(done, req.Core, trace.EvMemRead, 0, lat)
			} else {
				m.emit(min, req.Core, trace.EvMemWrite, 0, 0)
			}
		default: // tBus
			win, at := m.bus.Grant(hold)
			if m.bus.HasWaiters() {
				m.evBus = m.bus.NextGrantTime()
			} else {
				m.evBus = never
			}
			ctl := m.cores[win.Core]
			m.granted(ctl, at, at-win.Arrival)
			r.noteCore(ctl)
			m.emit(at, win.Core, trace.EvBusGrant, ctl.req.Addr, at-win.Arrival)
		}
	}
}

// step advances a ready core by one pipeline step.
func (r *referenceLoop) step(ctl *coreCtl) error {
	m := r.m
	switch ctl.core.Step() {
	case cpu.NeedNone:
		if ctl.core.Retired() > m.cfg.MaxInstrPerCore {
			return fmt.Errorf("sim: core %d exceeded %d instructions", ctl.id, m.cfg.MaxInstrPerCore)
		}
	case cpu.NeedHalt:
		if err := ctl.core.Fault(); err != nil {
			return fmt.Errorf("sim: core %d: %w", ctl.id, err)
		}
		ctl.state = stDone
		m.emit(ctl.core.Clock, ctl.id, trace.EvCoreHalt, 0, int64(ctl.core.Retired()))
	case cpu.NeedLLC:
		m.issueRequest(ctl, ctl.core.Clock)
	}
	return nil
}

// loopPlatform is one platform of the differential test: a configuration,
// its programs and an optional fault plan.
type loopPlatform struct {
	name  string
	cfg   Config
	progs []*isa.Program
	plan  *fault.Plan
}

// loopPlatforms builds the differential test's platforms: a random
// 4-kernel mix of the paper kernels, drawn from seed, under each of EFL
// (MID 250/500/1000), CP 2/2/2/2, the 3-level hierarchy, write-through
// DL1s, the TD ablation policy, an idle core and three armed fault plans;
// the SC and FS shared-data kernels on coherent platforms; and one random
// kernel on core 0 of each analysis-mode platform of analysisConfigs and
// of the 3-level hierarchy.
func loopPlatforms(t *testing.T, seed uint64) []loopPlatform {
	t.Helper()
	specs := bench.All()
	src := rng.New(seed)
	mix := func() []*isa.Program {
		progs := make([]*isa.Program, 4)
		for i := range progs {
			progs[i] = specs[src.Intn(len(specs))].Build()
		}
		return progs
	}
	wt := DefaultConfig().WithEFL(500)
	wt.DL1WriteThrough = true
	td := DefaultConfig()
	td.Policy = cache.TimeDeterministic
	plan := func(c fault.Class, core int) *fault.Plan { p := fault.Single(c, core); return &p }
	kinds := []loopPlatform{
		{name: "efl250", cfg: DefaultConfig().WithEFL(250)},
		{name: "efl500", cfg: DefaultConfig().WithEFL(500)},
		{name: "efl1000", cfg: DefaultConfig().WithEFL(1000)},
		{name: "cp2222", cfg: DefaultConfig().WithPartition([]int{2, 2, 2, 2})},
		{name: "3level", cfg: threeLevelConfig()},
		{name: "writethrough", cfg: wt},
		{name: "td", cfg: td},
		{name: "idle-core", cfg: DefaultConfig().WithEFL(500)},
		{name: "bus-starvation", cfg: DefaultConfig().WithEFL(500), plan: plan(fault.BusStarvation, 1)},
		{name: "mem-overrun", cfg: DefaultConfig().WithEFL(500), plan: plan(fault.MemOverrun, fault.AllCores)},
		{name: "efl-stuck-eab", cfg: DefaultConfig().WithEFL(500), plan: plan(fault.EFLStuckEAB, 2)},
	}
	for i := range kinds {
		kinds[i].progs = mix()
		if kinds[i].name == "idle-core" {
			kinds[i].progs[src.Intn(4)] = nil
		}
	}
	fs := threeLevelConfig()
	fs.SharedDataBytes = bench.FSSharedBytes
	kinds = append(kinds,
		loopPlatform{name: "coherent-SC", cfg: coherentConfig(bench.SCSharedBytes), progs: sharedProgs(t, "SC", 4)},
		loopPlatform{name: "coherent-FS", cfg: fs, progs: sharedProgs(t, "FS", 4)})
	configs := analysisConfigs()
	configs["3level"] = threeLevelConfig()
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := configs[name].WithAnalysis(0)
		progs := make([]*isa.Program, cfg.Cores)
		progs[0] = specs[src.Intn(len(specs))].Build()
		kinds = append(kinds, loopPlatform{name: "analysis-" + name, cfg: cfg, progs: progs})
	}
	return kinds
}

// loopOutcome is everything one run exposes: the result or the error, the
// coherence counters, the sharing report and the traced event list.
type loopOutcome struct {
	Res     Result
	Err     string
	Coh     CoherenceStats
	Sharing []LineSharingStats
	Events  []trace.Event
	Dropped uint64
}

// loopRun runs m once through loop, tracing into buf, and returns what the
// run exposed. The events alias buf until its next reset.
func loopRun(m *Multicore, buf *trace.Buffer, loop func(*Multicore, *Result) error) loopOutcome {
	var o loopOutcome
	buf.Reset()
	if err := loop(m, &o.Res); err != nil {
		o.Err = err.Error()
	}
	o.Coh = m.CoherenceStats()
	o.Sharing = m.SharingReport()
	o.Events = buf.Events()
	o.Dropped = buf.Dropped()
	return o
}

// TestGeneralLoopMatchesReference is the differential test of the event
// loop: on every platform of loopPlatforms, two consecutive runs through
// RunInto and through the reference loop must agree in every field of
// Result, in CoherenceStats, SharingReport and the full traced event list
// — and, with a watchdog budget or an instruction ceiling small enough to
// trip, in the error. The RunInto side replays every core's pooled trace,
// as Pool.Get attaches them (interpreting on coherent platforms and where
// the program outruns the instruction ceiling), and the reference side
// interprets.
func TestGeneralLoopMatchesReference(t *testing.T) {
	loops := [2]func(*Multicore, *Result) error{(*Multicore).RunInto, referenceRun}
	bufs := [2]*trace.Buffer{trace.NewBuffer(1 << 19), trace.NewBuffer(1 << 19)}
	cases := []struct {
		name  string
		setup func(*Multicore)
		trip  func(err string) bool // recognises the error the case expects
	}{
		{"full", func(*Multicore) {}, func(err string) bool { return err == "" }},
		{"watchdog", func(m *Multicore) { m.SetWatchdog(20_000) },
			func(err string) bool { return strings.Contains(err, ErrWatchdog.Error()) }},
		{"instr-ceiling", func(m *Multicore) { m.cfg.MaxInstrPerCore = 1_500 },
			func(err string) bool { return strings.Contains(err, "exceeded 1500 instructions") }},
	}
	for _, p := range loopPlatforms(t, 5) {
		t.Run(p.name, func(t *testing.T) {
			pool := NewPool()
			for _, tc := range cases {
				var ms [2]*Multicore
				for i := range ms {
					m, err := New(p.cfg, p.progs, 9)
					if err != nil {
						t.Fatal(err)
					}
					if p.plan != nil {
						if err := m.ArmFaults(*p.plan); err != nil {
							t.Fatal(err)
						}
					}
					tc.setup(m)
					m.SetTracer(bufs[i])
					ms[i] = m
				}
				pool.replay(ms[0])
				for _, ctl := range ms[0].cores {
					// Every core replays but on coherent platforms and where
					// the program outruns the instruction ceiling.
					if want := p.cfg.SharedDataBytes == 0 && tc.name != "instr-ceiling"; ctl.core != nil && ctl.core.Replaying() != want {
						t.Fatalf("%s: core %d replaying = %v, want %v", tc.name, ctl.id, !want, want)
					}
				}
				for run := 1; run <= 2; run++ {
					got := loopRun(ms[0], bufs[0], loops[0])
					want := loopRun(ms[1], bufs[1], loops[1])
					if !tc.trip(want.Err) {
						t.Fatalf("%s run %d: reference error %q is not the one the case sets up", tc.name, run, want.Err)
					}
					if want.Dropped > 0 {
						t.Fatalf("%s run %d: trace buffer dropped %d events", tc.name, run, want.Dropped)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s run %d diverged from the reference loop: %s", tc.name, run, outcomeDiff(got, want))
					}
				}
			}
		})
	}
}

// outcomeDiff names the first fields where two outcomes differ.
func outcomeDiff(got, want loopOutcome) string {
	if got.Err != want.Err {
		return fmt.Sprintf("error %q, reference %q", got.Err, want.Err)
	}
	for i := range min(len(got.Events), len(want.Events)) {
		if got.Events[i] != want.Events[i] {
			return fmt.Sprintf("event %d is %v, reference %v", i, got.Events[i], want.Events[i])
		}
	}
	if len(got.Events) != len(want.Events) {
		return fmt.Sprintf("%d events, reference %d", len(got.Events), len(want.Events))
	}
	var diffs []string
	fieldDiffs("", reflect.ValueOf(got), reflect.ValueOf(want), &diffs)
	return strings.Join(diffs, "; ")
}
