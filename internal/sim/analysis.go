package sim

import "efl/internal/cpu"

// This file holds the analysis-mode shortcuts. An MBPTA campaign runs
// hundreds of independent analysis-mode simulations of the same (config,
// program) pair on one pooled platform, so two per-run costs are cut:
//
//   - replay: the architectural instruction stream is decoded ONCE per
//     program (cpu.RecordTrace, pooled by Pool.traceFor) and replayed by
//     every run, removing the interpreter from the hot path;
//   - rewind: the platform is rewound in place per run (Rewind, the last
//     step of the New → Reuse → Rewind lifecycle in sim.go), so the
//     steady state allocates nothing.
//
// The runs themselves go through the one event loop, generalAdvance.
// Both shortcuts are bit-identical to a fresh interpreted run — pinned by
// the all-kernel golden test, the stream-vs-fresh property tests and the
// analysis rows of the loop differential test. The campaign loops that
// drive these runs (Pool.CollectAnalysisTimes, Pool.StreamAnalysisTimes)
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

// setReplay attaches tr to the analysed core (nil detaches), so the
// core's Step takes its instructions from the recorded trace instead of
// the interpreter; the timing code is the same either way. Replay runs in
// burst mode: the core retires whole stretches of hitting instructions per
// Step call, yielding only at shared-memory stalls and at the run-abort
// bounds (instruction ceiling, cycle limit — the latter set per run by
// setReplayYield).
func (m *Multicore) setReplay(tr *cpu.Trace) {
	if m.coh != nil {
		// Replay's same-line elision skips the access, and with it the
		// per-access coherence Touch; coherent platforms always interpret.
		return
	}
	if ctl := m.cores[m.cfg.AnalysedCore]; ctl.core != nil {
		ctl.core.SetReplay(tr)
		if tr != nil {
			ctl.core.EnableReplayBurst(m.cfg.MaxInstrPerCore)
		}
	}
}

// setReplayYield propagates the run's effective cycle limit to every
// replaying core so bursts yield where the per-instruction path would have
// tripped the limit check.
func (m *Multicore) setReplayYield(limit int64) {
	for _, ctl := range m.cores {
		if ctl.core != nil {
			ctl.core.SetReplayYieldClock(limit)
		}
	}
}
