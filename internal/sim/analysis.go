package sim

import "efl/internal/cpu"

// This file holds the shortcuts pooled runs take. A campaign runs
// hundreds of simulations of the same programs on one pooled platform —
// an MBPTA campaign hundreds of analysis-mode runs of one (config,
// program) pair, a deployment campaign many seeded runs of a few program
// mixes — so two per-run costs are cut:
//
//   - replay: each program's architectural instruction stream is decoded
//     ONCE (cpu.RecordTraceFor, pooled by content in Pool.traceFor) and
//     replayed by every run of every core that runs it, removing the
//     interpreter from the hot path. Pool.Get attaches the traces to
//     every active core of every non-coherent platform; an analysis
//     platform is the case with one active core;
//   - rewind: the platform is rewound in place per run (Rewind, the last
//     step of the New → Reuse → Rewind lifecycle in sim.go), so the
//     steady state allocates nothing.
//
// The runs themselves go through the one event loop, generalAdvance, and
// on every non-coherent platform, pooled or fresh, a third shortcut cuts
// the loop's own work:
//
//   - stall streams: each active core steps on a producer goroutine of
//     its own, in private time, and the loop reads one record per step
//     that needs the platform instead of stepping the core (stream.go).
//
// All three are bit-identical to a fresh interpreted run in lockstep —
// pinned by the all-kernel golden test, the pooled-vs-fresh property
// tests and the two differential tests against the reference loop, whose
// RunInto sides replay and stream every core. The campaign loops that
// drive analysis runs (Pool.CollectAnalysisTimes, Pool.StreamAnalysisTimes)
// live in pool.go.

// effectiveLimit is the run's cycle ceiling: the configured maximum,
// tightened by the runner watchdog budget when one is armed.
func (m *Multicore) effectiveLimit() int64 {
	limit := m.cfg.MaxCycles
	if m.watchdog > 0 && m.watchdog < limit {
		limit = m.watchdog
	}
	return limit
}

// setReplay attaches tr to ctl's core (nil detaches), so the core's Step
// takes its instructions from the recorded trace instead of the
// interpreter; the timing code is the same either way. Replay runs in
// burst mode: the core retires whole stretches of hitting instructions
// per Step call, yielding only at shared-memory stalls and at the
// instruction ceiling. A trace longer than the ceiling is not attached: a
// segment retires several instructions at once, so the ceiling check
// could fire late.
func (m *Multicore) setReplay(ctl *coreCtl, tr *cpu.Trace) {
	if tr != nil && uint64(tr.Len()) > m.cfg.MaxInstrPerCore+1 {
		tr = nil
	}
	ctl.core.SetReplay(tr)
	if tr != nil {
		ctl.core.EnableReplayBurst(m.cfg.MaxInstrPerCore)
	}
}
