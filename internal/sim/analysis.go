package sim

import (
	"fmt"

	"efl/internal/cpu"
)

// This file holds the analysis-mode fast path. An MBPTA campaign runs
// hundreds of independent analysis-mode simulations of the same (config,
// program) pair on one pooled platform, so three per-run costs are cut:
//
//   - the architectural instruction stream is decoded ONCE per program
//     (cpu.RecordTrace, pooled by Pool.traceFor) and replayed by every run,
//     removing the interpreter from the hot path;
//   - the platform is rewound in place per run (Rewind, the last step of
//     the New → Reuse → Rewind lifecycle in sim.go), so the steady state
//     allocates nothing;
//   - the event loop is the analysis-mode specialisation (analysisAdvance):
//     with exactly one active core and no bus/memory-controller events, the
//     per-event candidate scan reads the analysed core's one candidate and
//     the CRGs, and a wake chain dispatches without rescanning, where the
//     general loop scans 2 x Cores + 2 candidates per event.
//
// Every shortcut is bit-identical to a fresh interpreted run through the
// general event loop — pinned by the all-kernel golden test and the
// stream-vs-fresh property tests. The campaign loops that drive these
// runs (Pool.CollectAnalysisTimes, Pool.StreamAnalysisTimes) live in
// pool.go.

// effectiveLimit is the run's cycle ceiling: the configured maximum,
// tightened by the runner watchdog budget when one is armed.
func (m *Multicore) effectiveLimit() int64 {
	limit := m.cfg.MaxCycles
	if m.watchdog > 0 && m.watchdog < limit {
		limit = m.watchdog
	}
	return limit
}

// analysisAdvance is RunInto's event loop specialised for analysis mode,
// where only the analysed core is active and the bus/memory-controller
// queues are never used (the analysed core is charged the phantom-
// contender envelope and the UBD instead). Dispatch order, tie-breaks and
// PRNG draw order are identical to the general loop — core before CRG
// before wake at equal times, lowest CRG index wins — which keeps results
// bit-identical (pinned by TestRunIntoMatchesGeneralLoop). It runs until
// the analysed core finishes or an error occurs.
func (m *Multicore) analysisAdvance(limit int64) error {
	a := m.cfg.AnalysedCore
	ctl := m.cores[a]
	for {
		e := m.evCore[a]
		tCore, tWake := e.t, never
		if e.wake {
			tCore, tWake = never, e.t
		}
		tCRG, crgIdx := never, -1
		for i := range m.evCRG {
			if t := m.evCRG[i]; t < tCRG {
				tCRG, crgIdx = t, i
			}
		}

		if tCore == never && tWake == never {
			if ctl.state == stDone {
				return nil
			}
			return fmt.Errorf("sim: deadlock: no events but cores not done")
		}

		min := tCore
		if tWake < min {
			min = tWake
		}
		if tCRG < min {
			min = tCRG
		}
		if min > limit {
			return m.limitExceeded(limit)
		}

		switch {
		case tCore == min:
			// Core-priority inner batch, bounded by the earliest other
			// event; the strict-less bound matches the general loop's
			// tie-break exactly.
			otherMin := tWake
			if tCRG < otherMin {
				otherMin = tCRG
			}
			for {
				if err := m.stepCore(ctl); err != nil {
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
			m.noteCore(ctl)
		case tCRG == min:
			m.fireCRG(crgIdx)
		default: // tWake
			// Wake-chain inner batch: a transaction's timed stages (LLC
			// lookup, EAB stall, UBD wait, next pending request) dispatch
			// back-to-back while each stays strictly before the earliest
			// CRG fire (ties go to the CRG, matching the dispatch order
			// above) and inside the cycle limit — the same events in the
			// same order as one loop iteration per stage, without
			// rescanning the candidates in between.
			m.wake(ctl)
			for ctl.state == stWaitEval || ctl.state == stWaitEAB || ctl.state == stWaitWake {
				nw := ctl.wakeAt
				if nw >= tCRG || nw > limit {
					break
				}
				m.wake(ctl)
			}
			m.noteCore(ctl)
		}
	}
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
