package cpu

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"efl/internal/isa"
)

// noFetch marks a trace entry whose instruction was dispatched without an
// IL1 access: the interpreter's out-of-range-PC fault path skips the fetch
// and lets StepInto raise the precise fault.
const noFetch = math.MaxUint64

// TraceEntry is one retired (or faulting) instruction of a recorded
// architectural trace: exactly the fields Step consults when timing an
// instruction, with the interpreter's work (decode, register file, data
// memory) already performed. Addresses are architectural — the per-core
// addrBase is applied at replay time, so one trace serves every core.
type TraceEntry struct {
	FetchAddr uint64 // architectural fetch address, noFetch if fetch skipped
	MemAddr   uint64 // architectural data address (IsMem only)
	Latency   int64  // execute latency incl. implicit 1-cycle base
	Taken     bool   // taken branch (adds BranchPenalty)
	IsMem     bool   // loads/stores access the DL1
	MemWrite  bool   // store vs load (IsMem only)
	Halted    bool   // the HALT instruction (1 cycle, retires)
	Fault     bool   // interpreter fault (no cycle, does not retire)

	// Same-line elision flags, computed by compile for a specific line
	// shift. skipFetch: the fetch lands on the same line as the previous
	// entry's fetch, so it is a guaranteed IL1 hit (the previous fetch
	// either hit the line or filled it, and only the IL1's own fills evict
	// IL1 lines). skipData: a data access to the same line as the previous
	// data access — a guaranteed DL1 memo hit under a write-back DL1,
	// where every access leaves its line resident and memoed.
	skipFetch bool
	skipData  bool
}

// traceSeg is a maximal run (length >= 2) of consecutive entries whose
// every side effect is statically known: each fetch is a same-line IL1 hit
// and each data access a same-line DL1 hit. Replay applies a whole segment
// as one clock/counter bump plus bulk statistics updates — exactly what
// entry-by-entry replay would do, since same-line hits are memo-answered
// and (under EoM) touch nothing but statistics and the memo line's dirty
// bit. The chained same-line condition means all covered data accesses
// land on one line — the DL1's current memo line — so the covered stores
// collapse to a single MemoWriteHits call.
type traceSeg struct {
	end   int32  // first entry index past the segment
	lat   int64  // summed execute latencies
	steps uint64 // retired instructions (== elided IL1 accesses)
	taken uint64 // taken branches (BranchPenalty applied at replay time)
	dl1r  uint64 // elided DL1 loads
	dl1w  uint64 // elided DL1 stores (same memo line, see MemoWriteHits)
}

// Trace is the architectural instruction stream of one program. The
// stream is seed-independent — the ISA has no timing-visible inputs — so
// a single recording can be replayed by every run of a campaign,
// eliminating the interpreter from the simulation hot path.
type Trace struct {
	prog    *isa.Program
	entries []TraceEntry
	err     error // the fault the final entry raises, if any

	// Compiled elision structure (see compile): valid for one line shift at
	// a time, recompiled if a core with a different L1 geometry attaches.
	compiled bool
	shift    uint
	segAt    []int32 // segment index starting at entry i, -1 otherwise
	segs     []traceSeg
}

// Len returns the number of recorded instructions.
func (t *Trace) Len() int { return len(t.entries) }

// Bytes returns the heap bytes the trace holds once compiled: its entries
// plus compile's per-entry segment index. The segment records themselves
// (at most one per two entries) are not counted. A nil trace holds none.
func (t *Trace) Bytes() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.entries)) * int64(unsafe.Sizeof(TraceEntry{})+unsafe.Sizeof(int32(0)))
}

// replayElidable reports whether the entry can be absorbed into a bulk
// segment: it retires normally and every cache access it performs is a
// statically-guaranteed same-line read hit.
func (e *TraceEntry) replayElidable() bool {
	return e.skipFetch && !e.Halted && !e.Fault && (!e.IsMem || e.skipData)
}

// compile derives the same-line elision flags and bulk segments for the
// given line shift (log2 of the L1 line size). Line addresses compare the
// architectural addresses directly: the per-core addrBase lives in the
// high bits, so basing preserves same-line equality. Idempotent per shift.
func (t *Trace) compile(shift uint) {
	if t.compiled && t.shift == shift {
		return
	}
	t.compiled, t.shift = true, shift
	n := len(t.entries)
	if cap(t.segAt) >= n {
		t.segAt = t.segAt[:n]
	} else {
		t.segAt = make([]int32, n)
	}
	t.segs = t.segs[:0]
	var prevFetch, prevMem uint64
	haveFetch, haveMem := false, false
	for i := range t.entries {
		e := &t.entries[i]
		e.skipFetch, e.skipData = false, false
		if e.FetchAddr != noFetch {
			line := e.FetchAddr >> shift
			e.skipFetch = haveFetch && line == prevFetch
			prevFetch, haveFetch = line, true
		}
		if e.IsMem {
			line := e.MemAddr >> shift
			e.skipData = haveMem && line == prevMem
			prevMem, haveMem = line, true
		}
	}
	for i := range t.segAt {
		t.segAt[i] = -1
	}
	for i := 0; i < n; {
		if !t.entries[i].replayElidable() {
			i++
			continue
		}
		var s traceSeg
		j := i
		for j < n && t.entries[j].replayElidable() {
			e := &t.entries[j]
			s.lat += e.Latency
			s.steps++
			if e.Taken {
				s.taken++
			}
			if e.IsMem {
				if e.MemWrite {
					s.dl1w++
				} else {
					s.dl1r++
				}
			}
			j++
		}
		if j-i >= 2 { // single elidable entries stay on the per-entry path
			s.end = int32(j)
			t.segAt[i] = int32(len(t.segs))
			t.segs = append(t.segs, s)
		}
		i = j
	}
}

// RecordTrace executes prog on a bare interpreter (no caches, no timing)
// and records its architectural trace. It errors when the program does not
// terminate within maxInstr retired instructions; callers fall back to the
// interpreter path in that case.
func RecordTrace(prog *isa.Program, maxInstr uint64) (*Trace, error) {
	m, err := isa.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	t := &Trace{prog: prog}
	var si isa.StepInfo
	for !m.Halted() {
		pc := m.PC
		fetchAddr := uint64(noFetch)
		if pc >= 0 && pc < len(prog.Code) {
			fetchAddr = isa.InstrAddr(pc)
		}
		if err := m.StepInto(&si); err != nil {
			t.entries = append(t.entries, TraceEntry{FetchAddr: fetchAddr, MemAddr: noFetch, Fault: true})
			t.err = err
			return t, nil
		}
		e := TraceEntry{FetchAddr: fetchAddr, MemAddr: noFetch}
		if si.Halted {
			e.Halted = true
			t.entries = append(t.entries, e)
			return t, nil
		}
		e.Latency = si.Op.Latency()
		e.Taken = si.Taken
		if si.Op.IsMem() {
			e.IsMem = true
			e.MemAddr = si.MemAddr
			e.MemWrite = si.MemWrite
		}
		t.entries = append(t.entries, e)
		if m.Steps > maxInstr {
			return nil, fmt.Errorf("cpu: trace recording exceeded %d instructions", maxInstr)
		}
	}
	return t, nil
}

// SetReplay attaches (or, with nil, detaches) a recorded trace. While a
// trace is attached, it replaces the interpreter as Step's instruction
// source: each entry feeds the same fetch, retire and data-access code an
// interpreted instruction does, so the sequence of IL1/DL1 accesses,
// pending requests, stats and clock advances is identical, but the per-
// instruction cost drops to an array walk. The trace's same-line elision
// and bulk segments apply only to replay. Reset keeps the attachment and
// rewinds the cursor. Panics if the trace was recorded from a different
// program than the core runs.
func (c *Core) SetReplay(t *Trace) {
	if t != nil && t.prog != c.M.Prog {
		panic("cpu: replay trace recorded from a different program")
	}
	c.replay = t
	c.replayIdx = 0
	c.replaySkipFetch = false
	c.replaySkipData = false
	c.replaySegs = false
	if t == nil {
		return
	}
	// Same-line elision needs stateless read hits (TR/EoM — under TD every
	// hit reorders LRU recency, so accesses may not be skipped). Data-side
	// elision additionally needs a write-back DL1 (a write-through
	// no-allocate store can leave its line unallocated, breaking the
	// same-line => resident proof) and the IL1's line geometry, since one
	// compiled flag set serves both caches. Attach replay only after the
	// core's WriteThrough mode is configured.
	il1Cfg, dl1Cfg := c.IL1.Config(), c.DL1.Config()
	c.replaySkipFetch = c.IL1.StatelessReadHits()
	c.replaySkipData = c.DL1.StatelessReadHits() && !c.WriteThrough &&
		dl1Cfg.LineBytes == il1Cfg.LineBytes
	c.replaySegs = c.replaySkipFetch && c.replaySkipData
	if c.replaySkipFetch || c.replaySkipData {
		t.compile(uint(bits.TrailingZeros64(uint64(il1Cfg.LineBytes))))
	}
}

// EnableReplayBurst lets the replaying core retire any number of hitting
// instructions inside one Step call instead of yielding NeedNone per
// instruction. Correctness: between first-level misses the core mutates
// only its own L1s and clock (hitting work draws no randomness and touches
// no shared resource), so the simulator observes the same event sequence
// regardless of how many retires one Step covers. Two bounds keep the
// simulator's run-abort checks exact: the burst yields at the first retire
// past maxInstr (where the instruction-ceiling check fires) and at the
// first retire whose clock exceeds the yield clock (where the cycle-limit
// check fires — see SetReplayYieldClock). An interpreting core never
// bursts: on a coherent platform its hitting stores call Coh.Touch, which
// is shared state.
func (c *Core) EnableReplayBurst(maxInstr uint64) {
	c.replayBurstCap = maxInstr
	c.replayYieldClock = math.MaxInt64
}

// SetReplayYieldClock bounds burst replay in time: a burst yields control
// at the first retire whose clock exceeds t. Simulators set it to the
// run's effective cycle limit so a burst cannot run past a watchdog budget
// the per-instruction path would have tripped.
func (c *Core) SetReplayYieldClock(t int64) { c.replayYieldClock = t }

// replaySegment applies bulk segment sg at the replay cursor: every
// covered access is a same-line hit, so the segment collapses to one clock
// bump and bulk statistics updates — byte-identical to the entry-by-entry
// replay it replaces.
func (c *Core) replaySegment(sg *traceSeg) {
	adv := sg.lat + int64(sg.taken)*c.BranchPenalty
	c.Clock += adv
	c.execCycles += adv
	c.retired += sg.steps
	c.stats.TakenBranches += sg.taken
	c.IL1.BulkMemoHits(sg.steps)
	if sg.dl1r > 0 {
		c.DL1.BulkMemoHits(sg.dl1r)
	}
	if sg.dl1w > 0 {
		c.DL1.MemoWriteHits(sg.dl1w)
	}
	c.replayIdx = int(sg.end)
}

// bursting reports whether a replaying core in burst mode keeps retiring
// inside the current Step call. An interpreting core never bursts.
func (c *Core) bursting() bool {
	return c.replay != nil && c.replayBurstCap > 0 &&
		c.retired <= c.replayBurstCap && c.Clock <= c.replayYieldClock
}
