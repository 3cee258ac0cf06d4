// Package cpu models the paper's core (§4.1): a 4-stage pipelined,
// in-order, single-issue processor with private first-level instruction
// (IL1) and data (DL1) caches.
//
// Timing model. With in-order single issue, unit-latency stages and
// blocking caches, the pipeline retires one instruction per cycle when
// everything hits; the only deviations are (a) instruction-fetch misses,
// (b) data-access misses, (c) multi-cycle execute operations (MUL/DIV) and
// (d) taken-branch redirect bubbles. The core therefore advances a cycle
// counter instruction by instruction: base cost 1 cycle, plus the extra
// execute latency, plus the branch penalty, plus memory stalls. This is
// exact for this microarchitecture and lets the surrounding discrete-event
// simulator handle the shared resources (bus, LLC, memory controller) at
// cycle granularity.
//
// The core is driven as a state machine by package sim: Step runs until
// the current instruction either retires (NeedNone) or requires one or
// more shared-memory transactions (NeedLLC); the simulator performs the
// transactions and calls Resume with the completion cycle. No decision
// in Step depends on the clock, so a core can also be stepped without
// Resume, in private time: its clock then counts only its own pipeline's
// cycles, and every step starts and ends a fixed offset from where the
// resumed core's would. Package sim steps the cores of a non-coherent
// platform that way, each on a goroutine of its own.
//
// Step is the only code that times an instruction. Each instruction comes
// from one of two sources: the interpreter (isa.Machine) or, when a
// recorded Trace is attached (SetReplay), the packed record at the replay
// cursor. Either source hands the same fields (fetch address, latency,
// taken branch, HALT, fault, data address) to the same fetch, retire and
// data-access code, so a replayed and an interpreted run follow one
// timing model. Simulation pools replay every core of a non-coherent
// platform, analysis and deployment alike; a fresh platform interprets.
package cpu

import (
	"encoding/binary"
	"fmt"

	"efl/internal/cache"
	"efl/internal/isa"
)

// Need is what the core requires from the simulator after a Step.
type Need int

const (
	// NeedNone: the instruction retired; the core is ready for more work.
	NeedNone Need = iota
	// NeedLLC: first-level caches missed; the pending shared transactions
	// (Requests) must complete before the core can continue.
	NeedLLC
	// NeedHalt: the program executed HALT or faulted; the core is done.
	NeedHalt
)

// ReqKind distinguishes the two shared-memory transaction types a core
// issues.
type ReqKind uint8

const (
	// ReqFetch reads a line from the LLC (and memory beyond) into an L1.
	ReqFetch ReqKind = iota
	// ReqWriteback writes a dirty L1 victim line into the LLC.
	ReqWriteback
	// ReqWriteThrough propagates a store outward under a write-through
	// DL1 (paper footnote 5): the word is written to the LLC (and, on an
	// LLC miss without write-allocate, to memory) on every store.
	ReqWriteThrough
	// ReqUpgrade is an MSI coherence upgrade: a store hit a shared-data
	// line resident in the DL1 without M ownership, so peer copies must
	// be invalidated over the bus before the store can retire.
	ReqUpgrade
)

// Request is one shared-memory transaction the simulator must perform on
// the core's behalf.
type Request struct {
	Addr  uint64 // byte address (ReqFetch) or line-aligned address (ReqWriteback)
	Kind  ReqKind
	Instr bool // instruction-side request (IL1) vs data-side (DL1)
	Excl  bool // ReqFetch of a shared line for writing (read-for-ownership)
}

// Coherence is the simulator-side MSI directory the core consults on every
// access inside the shared-data window. Touch records the access (per-line
// sharing statistics, the A5 hit events) and reports whether the core
// currently holds the line in Modified state; the bus-level protocol
// transitions (fetch, upgrade, invalidation) are performed by the
// simulator when the corresponding Request is serviced.
type Coherence interface {
	Touch(core int, addr uint64, write, l1hit bool) (owns bool)
}

// Stats aggregates the core's pipeline-level event counts (cache-level
// counts live in the caches themselves).
type Stats struct {
	FetchStalls   uint64 // instructions whose fetch missed IL1
	DataStalls    uint64 // memory instructions whose access missed DL1
	Writebacks    uint64 // dirty DL1 victims pushed to the LLC
	TakenBranches uint64
}

type phase int

const (
	phFetch phase = iota
	phExec
	phRetire
)

// Core is one simulated processor core.
type Core struct {
	ID  int
	M   *isa.Machine
	IL1 *cache.Cache
	DL1 *cache.Cache

	// BranchPenalty is the redirect bubble of a taken branch (default 1).
	BranchPenalty int64

	// WriteThrough switches the DL1 to write-through/no-write-allocate
	// (paper footnote 5): stores update the DL1 only on a hit, never
	// dirty it, and always emit a ReqWriteThrough transaction.
	WriteThrough bool

	// SharedLimit, when non-zero, is the exclusive upper bound of the
	// shared-data window [isa.DataBase, SharedLimit): architectural data
	// addresses inside it are physically shared between the cores (no
	// per-core rebasing) and every access consults Coh.
	SharedLimit uint64
	// Coh is the MSI directory for shared-window accesses (nil when the
	// coherence layer is off).
	Coh Coherence

	// Clock is the core-local cycle counter.
	Clock int64

	// execCycles counts the cycles the pipeline itself advanced the clock
	// by (instruction latencies, branch bubbles, the HALT cycle) — the
	// "execute" category of the cycle-accounting invariant. It is counted
	// at each clock advance, never derived as Clock minus stalls, so the
	// auditor's per-core category-sum check is a genuine cross-check
	// between this counter and the simulator's stall attribution.
	execCycles int64

	stats  Stats
	l1Mask cache.WayMask
	phase  phase
	// pending is the queue of shared transactions for the current stall.
	// It drains by advancing popIdx rather than re-slicing, so the backing
	// array is reused for the run's whole lifetime instead of creeping
	// forward and forcing an allocation every few transactions.
	pending []Request
	popIdx  int
	halted  bool
	fault   error
	// si is the scratch StepInfo the interpreter writes into (one per core,
	// reused every instruction).
	si isa.StepInfo
	// retired counts the run's retired instructions, whichever source
	// supplied them.
	retired uint64

	// stepStart is the clock at which the step that ended the last Step
	// call began (see StepStart).
	stepStart int64

	// replay, when attached (SetReplay), replaces the interpreter as the
	// instruction source with a recorded architectural trace. rtags and
	// rargs are its tag and argument streams, rpos and apos the cursors
	// into them, rtag the record being executed (its tag byte plus the
	// rec* flags), fline the previous fetch's line, rdata and rdata1 the
	// data-address bases (see appendData) and rshift the trace's
	// fetch-line shift.
	replay *Trace
	rtags  []byte
	rargs  []byte
	rpos   int
	apos   int
	rshift uint
	rtag   uint16
	fline  uint64
	rdata  uint64
	rdata1 uint64
	// replayBurstCap is the burst-mode bound (EnableReplayBurst): a burst
	// yields at the first retire past replayBurstCap instructions; 0
	// disables bursting.
	replayBurstCap uint64

	// addrBase disambiguates per-core physical addresses: every task has
	// private code and data (the paper's tasks share nothing), so core i's
	// view of architectural address a is a | (i << 32). Without this,
	// co-running copies of a program would alias in the shared LLC and
	// spuriously prefetch for each other.
	addrBase uint64
}

// New wires a core around a machine and its private L1 caches.
func New(id int, m *isa.Machine, il1, dl1 *cache.Cache) *Core {
	return &Core{
		ID:            id,
		M:             m,
		IL1:           il1,
		DL1:           dl1,
		BranchPenalty: 1,
		l1Mask:        cache.FullMask(il1.Config().Ways),
		addrBase:      uint64(id) << 32,
	}
}

// Stats returns a copy of the pipeline counters.
func (c *Core) Stats() Stats { return c.stats }

// Retired returns the dynamic instruction count.
func (c *Core) Retired() uint64 { return c.retired }

// ExecCycles returns the cycles attributed to pipeline execution (the
// complement of shared-resource stalls in the core's clock).
func (c *Core) ExecCycles() int64 { return c.execCycles }

// Halted reports whether the core has finished (HALT or fault).
func (c *Core) Halted() bool { return c.halted }

// Fault returns the runtime fault that halted the core, if any.
func (c *Core) Fault() error { return c.fault }

// Reset prepares the core for a fresh run: machine state, caches (new RII
// per run, per the MBPTA protocol, and per-run statistics), clock and
// pipeline state.
func (c *Core) Reset() {
	if c.replay != nil {
		// Replay never touches the machine, so skip its (data-image copy)
		// reset; just rewind the trace cursor.
		c.rewindReplay()
	} else {
		c.M.Reset()
	}
	c.IL1.ResetStats()
	c.DL1.ResetStats()
	c.IL1.NewRun()
	c.DL1.NewRun()
	c.Clock = 0
	c.stepStart = 0
	c.execCycles = 0
	c.retired = 0
	c.stats = Stats{}
	c.phase = phFetch
	c.pending = c.pending[:0]
	c.popIdx = 0
	c.halted = false
	c.fault = nil
}

// PendingRequests returns the shared transactions the core is blocked on,
// in issue order. The simulator consumes them one by one.
func (c *Core) PendingRequests() []Request { return c.pending[c.popIdx:] }

// PopRequest removes and returns the first pending request. It panics when
// none is pending.
func (c *Core) PopRequest() Request {
	if c.popIdx >= len(c.pending) {
		panic("cpu: PopRequest with no pending requests")
	}
	r := c.pending[c.popIdx]
	c.popIdx++
	if c.popIdx == len(c.pending) {
		c.pending = c.pending[:0]
		c.popIdx = 0
	}
	return r
}

// HasPending reports whether transactions remain for the current stall.
func (c *Core) HasPending() bool { return c.popIdx < len(c.pending) }

// Resume is called by the simulator when all pending transactions have
// completed at cycle t; the core's clock jumps to t.
func (c *Core) Resume(t int64) {
	if t > c.Clock {
		c.Clock = t
	}
}

// Step advances the core. It returns NeedNone when an instruction retired
// (the common case: Clock advanced by its cost), NeedLLC when the core
// must wait for shared transactions (PendingRequests), and NeedHalt when
// the program is done.
func (c *Core) Step() Need {
	if c.halted {
		return NeedHalt
	}
	c.stepStart = c.Clock
	// The common path — IL1 fetch hit followed by execute — flows through
	// both phases in one call; iterating here instead of tail-recursing
	// keeps the per-instruction path a single stack frame.
	for {
		switch c.phase {
		case phFetch:
			fetchAddr := uint64(noFetch)
			if c.replay != nil {
				b := c.rtags[c.rpos]
				c.rpos++
				tag := uint16(b)
				if b&tagSpecial != 0 {
					if b <= tagSpecial|maxRun || c.replaySpecial(b) {
						// A run or segment retires whole.
						if b <= tagSpecial|maxRun {
							c.replayRun(uint64(b &^ tagSpecial))
						}
						if c.bursting() {
							c.stepStart = c.Clock
							continue
						}
						return NeedNone
					}
					tag = c.rtag
				}
				c.rtag = tag
				if tag&tagSkipFetch != 0 {
					c.IL1.BulkMemoHits(1)
					c.phase = phExec
					continue
				}
				if tag&recNoFetch == 0 {
					fetchAddr = (c.fline + 1) << c.rshift
					if tag&tagJump != 0 {
						fetchAddr = uint64(binary.LittleEndian.Uint32(c.rargs[c.apos:]))
						c.apos += 4
					}
					c.fline = fetchAddr >> c.rshift
				}
			} else {
				if c.M.Halted() {
					return c.halt(nil)
				}
				if pc := c.M.PC; pc >= 0 && pc < len(c.M.Prog.Code) {
					fetchAddr = isa.InstrAddr(pc)
				}
			}
			c.phase = phExec
			if fetchAddr == noFetch {
				// Out-of-range PC: skip the fetch and let execute raise the
				// precise fault.
				continue
			}
			fetchAddr |= c.addrBase
			if c.IL1.Access(fetchAddr, false, c.l1Mask, -1).Hit {
				continue
			}
			// Instruction lines are never dirty (no self-modifying code), so
			// an IL1 fill needs only the fetch transaction.
			c.stats.FetchStalls++
			c.pending = append(c.pending, Request{Kind: ReqFetch, Addr: fetchAddr, Instr: true})
			return NeedLLC

		case phExec:
			var lat int64
			var taken, halted, mem, write bool
			var addr uint64
			if c.replay != nil {
				tag := c.rtag
				if tag&recFault != 0 {
					return c.halt(c.replay.err)
				}
				lat, taken, halted = 1, tag&tagTaken != 0, tag&recHalt != 0
				if tag&tagLat != 0 {
					lat = int64(c.rargs[c.apos])
					c.apos++
				}
				write = tag&tagWrite != 0
				switch tag & (tagMem | tagSkipData) {
				case tagMem:
					addr, mem = c.dataAddr(), true
				case tagMem | tagSkipData:
					// Same-line access under a write-back DL1: a guaranteed
					// memo-answered hit on the memoed line.
					if write {
						c.DL1.MemoWriteHits(1)
					} else {
						c.DL1.BulkMemoHits(1)
					}
				}
			} else {
				si := &c.si
				if err := c.M.StepInto(si); err != nil {
					return c.halt(err)
				}
				lat, taken, halted = si.Op.Latency(), si.Taken, si.Halted
				mem, write, addr = si.Op.IsMem(), si.MemWrite, si.MemAddr
			}
			// A faulting instruction returned above: it does not retire.
			c.retired++
			if halted {
				// The HALT instruction itself occupies one cycle.
				c.Clock++
				c.execCycles++
				return c.halt(nil)
			}
			c.Clock += lat
			c.execCycles += lat
			if taken {
				c.Clock += c.BranchPenalty
				c.execCycles += c.BranchPenalty
				c.stats.TakenBranches++
			}
			if mem && c.dataAccess(addr, write) {
				c.phase = phRetire
				return NeedLLC
			}
			c.phase = phFetch
			if c.bursting() {
				c.stepStart = c.Clock
				continue
			}
			return NeedNone

		case phRetire:
			// Data transactions completed (Resume set the clock).
			c.phase = phFetch
			if c.bursting() {
				continue
			}
			return NeedNone

		default:
			panic(fmt.Sprintf("cpu: core %d in impossible phase %d", c.ID, c.phase))
		}
	}
}

// StepStart returns the clock at which the step that ended the last Step
// call began: the call's start clock, or in a replay burst the start of
// its last instruction (or of the resumption that ended the burst). A
// simulator that steps a core apart from the platform places a stalling
// step's shared transactions by this clock.
func (c *Core) StepStart() int64 { return c.stepStart }

// halt stops the core, recording the fault that stopped it (nil for HALT).
func (c *Core) halt(fault error) Need {
	c.halted = true
	c.fault = fault
	return NeedHalt
}

// dataAccess performs the DL1 access of a retiring load or store to
// architectural address addr and queues the shared transactions it needs:
// the write-through store, the coherence upgrade, or the dirty writeback
// plus the fetch of a miss. It reports whether any were queued.
func (c *Core) dataAccess(addr uint64, write bool) bool {
	memAddr := addr | c.addrBase
	shared := c.SharedLimit != 0 && addr >= isa.DataBase && addr < c.SharedLimit
	if shared {
		// Shared-window addresses are physical: every core sees the same
		// line, so no per-core rebasing.
		memAddr = addr
	}
	if c.WriteThrough && write {
		// Write-through store: DL1 updated on hit only (never dirtied), and
		// the store always goes outward.
		c.DL1.AccessNoAlloc(memAddr, c.l1Mask, -1)
		c.pending = append(c.pending, Request{Kind: ReqWriteThrough, Addr: memAddr})
		return true
	}
	r := c.DL1.Access(memAddr, write, c.l1Mask, -1)
	rfo := false
	if shared && c.Coh != nil {
		if owns := c.Coh.Touch(c.ID, memAddr, write, r.Hit); write && !owns {
			// A store without M ownership must invalidate the peers' copies
			// over the bus before retiring: as an upgrade of the resident
			// copy, or folded into the miss fetch as a read-for-ownership.
			if r.Hit {
				c.pending = append(c.pending, Request{Kind: ReqUpgrade, Addr: memAddr})
				return true
			}
			rfo = true
		}
	}
	if r.Hit {
		return false
	}
	c.stats.DataStalls++
	if r.Evicted && r.EvictedDirty {
		c.stats.Writebacks++
		c.pending = append(c.pending, Request{
			Kind: ReqWriteback,
			Addr: r.EvictedAddr * uint64(c.DL1.Config().LineBytes),
		})
	}
	c.pending = append(c.pending, Request{Kind: ReqFetch, Addr: memAddr, Excl: rfo})
	return true
}

// RunIsolatedPerfect executes the whole program assuming the L1s never
// miss below themselves (i.e. every L1 miss costs exactly llcHit extra
// cycles with no contention). It exists for calibration and tests; the
// real memory path is driven by package sim.
func (c *Core) RunIsolatedPerfect(llcExtra int64, maxSteps uint64) error {
	for {
		switch c.Step() {
		case NeedHalt:
			if c.fault != nil {
				return c.fault
			}
			return nil
		case NeedLLC:
			done := c.Clock
			for c.HasPending() {
				c.PopRequest()
				done += llcExtra
			}
			c.Resume(done)
		case NeedNone:
		}
		if c.Retired() > maxSteps {
			return fmt.Errorf("cpu: core %d exceeded %d instructions", c.ID, maxSteps)
		}
	}
}
