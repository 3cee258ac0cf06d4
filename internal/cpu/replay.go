package cpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"efl/internal/isa"
)

// noFetch marks an instruction dispatched without an IL1 access: the
// interpreter's out-of-range-PC fault path skips the fetch and lets
// StepInto raise the precise fault.
const noFetch = math.MaxUint64

// TraceEntry is one retired (or faulting) instruction as the recorder
// sees it: exactly the fields Step consults when timing an instruction,
// with the interpreter's work (decode, register file, data memory)
// already performed. Addresses are architectural — the per-core addrBase
// is applied at replay time, so one trace serves every core. The recorder
// packs each entry into the trace as it is produced; none is kept.
type TraceEntry struct {
	FetchAddr uint64 // architectural fetch address, noFetch if fetch skipped
	MemAddr   uint64 // architectural data address (IsMem only)
	Latency   int64  // execute latency incl. implicit 1-cycle base
	Taken     bool   // taken branch (adds BranchPenalty)
	IsMem     bool   // loads/stores access the DL1
	MemWrite  bool   // store vs load (IsMem only)
	Halted    bool   // the HALT instruction (1 cycle, retires)
	Fault     bool   // interpreter fault (no cycle, does not retire)
}

// Packed layout. A trace is packed for an L1 line size, with same-line
// elision, or exact, without it. A record is a tag byte in the tag stream
// plus the fields the tag calls for in the argument stream; with the tags
// apart the decoder walks them at a fixed stride. A plain record is one
// instruction: its tag, then a 4-byte fetch address (tagJump), a 1-byte
// latency (tagLat; 1 otherwise) and a data address (see appendData).
//
// A fetch flagged tagSkipFetch is on the previous fetch's line; any other
// is on a new line, the next one's first byte unless tagJump gives it
// (an exact trace counts 4-byte lines, one per instruction). A load or
// store flagged tagSkipData is on the previous data access's line and
// carries no address. Both flags mark a guaranteed L1 hit — the previous
// access to the line hit or filled it, and only the cache's own fills
// evict its lines — which, under stateless read hits, the line memo
// answers, so replay counts it instead of performing it.
//
// A tag with tagSpecial set is a segment — a run of instructions that
// each fetch and access data only on the previous line, without halting
// or faulting — or an end marker. tagSpecial|k (k <= maxRun) is k
// one-cycle instructions without branches or data accesses;
// tagSegment+k-1 (k <= maxSegment) is k of any kind, with the loads,
// stores and taken branches packed 3:3:2 bits in one byte and the latency
// beyond a cycle each in another. tagHaltNext and tagFaultNext precede
// the final record, the HALT or an instruction faulting after its fetch;
// tagFaultNoFetch is a final instruction faulting without one.
const (
	tagMem       = 1 << 0
	tagWrite     = 1 << 1
	tagTaken     = 1 << 2
	tagJump      = 1 << 3
	tagSkipFetch = 1 << 4
	tagSkipData  = 1 << 5
	tagLat       = 1 << 6
	tagSpecial   = 1 << 7

	maxRun          = 0x3f
	tagHaltNext     = 0xc0
	tagFaultNext    = 0xc1
	tagFaultNoFetch = 0xc2
	tagSegment      = 0xc3
	maxSegment      = 0xff - tagSegment + 1

	// Decoded-record flags above the tag byte (Core.rtag).
	recHalt    = 1 << 8
	recFault   = 1 << 9
	recNoFetch = 1 << 10

	exactShift = 2              // the fetch-line shift of an exact trace
	noData     = math.MaxUint64 // the first data base: on no line, so never elided
)

// Trace is the architectural instruction stream of one program, packed
// as above. The stream is seed-independent — the ISA has no
// timing-visible inputs — so one recording serves every run of every
// core that runs the program, removing the interpreter from the hot path.
type Trace struct {
	prog      *isa.Program
	lineBytes int  // the line size the trace elides for; 0: exact
	shift     uint // log2 of the fetch-line size
	tags      []byte
	args      []byte
	n         int   // recorded instructions
	err       error // the fault the final entry raises, if any
}

// Len returns the number of recorded instructions.
func (t *Trace) Len() int { return t.n }

// Bytes returns the heap bytes of the packed streams; a nil trace has none.
func (t *Trace) Bytes() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.tags) + len(t.args))
}

// RecordTrace records prog's trace for the paper's 16-byte L1 lines (see
// RecordTraceFor).
func RecordTrace(prog *isa.Program, maxInstr uint64) (*Trace, error) {
	return RecordTraceFor(prog, maxInstr, 16)
}

// RecordTraceFor executes prog on a bare interpreter (no caches, no
// timing), packing its architectural trace as it goes: elided for L1
// lines of lineBytes bytes, or exact for 0 (Core.ReplayLineBytes says
// which a core replays). It errors when lineBytes is neither 0 nor a
// power of two of at least isa.InstrBytes, when the code outgrows 4-byte
// addresses, or when the program does not terminate within maxInstr
// retired instructions; callers then interpret.
func RecordTraceFor(prog *isa.Program, maxInstr uint64, lineBytes int) (*Trace, error) {
	if len(prog.Code) > math.MaxUint32/isa.InstrBytes {
		return nil, fmt.Errorf("cpu: %d instructions overflow a trace's 4-byte fetch addresses", len(prog.Code))
	}
	shift := uint(exactShift)
	if lineBytes != 0 {
		if lineBytes < isa.InstrBytes || lineBytes&(lineBytes-1) != 0 {
			return nil, fmt.Errorf("cpu: trace line size %d is not a power of two of at least %d bytes", lineBytes, isa.InstrBytes)
		}
		shift = uint(bits.TrailingZeros(uint(lineBytes)))
	}
	m, err := isa.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	t := &Trace{prog: prog, lineBytes: lineBytes, shift: shift}
	p := packer{
		elide: lineBytes != 0, shift: shift,
		fline: isa.CodeBase>>shift - 1, data: [2]uint64{noData, isa.DataBase},
		tags: make([]byte, 0, 4096), args: make([]byte, 0, 4096),
	}
	var si isa.StepInfo
	for !m.Halted() {
		e := TraceEntry{FetchAddr: noFetch, MemAddr: noFetch}
		if pc := m.PC; pc >= 0 && pc < len(prog.Code) {
			e.FetchAddr = isa.InstrAddr(pc)
		}
		if err := m.StepInto(&si); err != nil {
			e.Fault = true
			t.err = err
		} else if si.Halted {
			e.Halted = true
		} else {
			if m.Steps > maxInstr {
				return nil, fmt.Errorf("cpu: trace recording exceeded %d instructions", maxInstr)
			}
			e.Latency, e.Taken = si.Op.Latency(), si.Taken
			if si.Op.IsMem() {
				e.IsMem, e.MemAddr, e.MemWrite = true, si.MemAddr, si.MemWrite
			}
		}
		p.add(e)
	}
	p.flush()
	// Copy out without the append slack: a pool keeps traces for a campaign.
	t.tags = append(make([]byte, 0, len(p.tags)), p.tags...)
	t.args = append(make([]byte, 0, len(p.args)), p.args...)
	t.n = p.n
	return t, nil
}

// packer packs TraceEntry records, holding back the current segment.
type packer struct {
	tags, args []byte
	n          int // entries packed
	elide      bool
	shift      uint
	fline      uint64    // the previous fetch's line
	data       [2]uint64 // the data-address bases (see appendData)
	seg        struct{ k, extra, taken, reads, writes uint64 }
	segTag     byte // the tag of the segment's last instruction (see flush)
}

// add packs e.
func (p *packer) add(e TraceEntry) {
	p.n++
	if e.FetchAddr == noFetch {
		p.flush()
		p.tags = append(p.tags, tagFaultNoFetch)
		return
	}
	line, next := e.FetchAddr>>p.shift, (p.fline+1)<<p.shift
	tag := bit(p.elide && line == p.fline, tagSkipFetch)
	tag |= bit(tag == 0 && e.FetchAddr != next, tagJump)
	p.fline = line
	var prefix byte
	switch {
	case e.Halted:
		prefix = tagHaltNext
	case e.Fault:
		prefix = tagFaultNext
	default:
		tag |= bit(e.Latency != 1, tagLat) | bit(e.Taken, tagTaken) |
			bit(e.IsMem, tagMem) | bit(e.MemWrite, tagWrite) |
			bit(e.IsMem && p.elide && e.MemAddr>>p.shift == p.data[0]>>p.shift, tagSkipData)
		if tag&tagSkipFetch != 0 && tag&(tagMem|tagSkipData) != tagMem {
			s := &p.seg
			if s.k == maxSegment || s.reads == 7 || s.writes == 7 || s.taken == 3 ||
				s.extra+uint64(e.Latency-1) > math.MaxUint8 {
				p.flush() // the segment's fields are full
			}
			s.k++
			s.extra += uint64(e.Latency - 1)
			s.taken += uint64(bit(e.Taken, 1))
			s.reads += uint64(bit(e.IsMem && !e.MemWrite, 1))
			s.writes += uint64(bit(e.MemWrite, 1))
			p.segTag = tag
			return
		}
	}
	if p.seg.k > 0 {
		p.flush()
	}
	if prefix != 0 {
		p.tags = append(p.tags, prefix)
	}
	p.tags = append(p.tags, tag)
	if tag&tagJump != 0 {
		p.args = binary.LittleEndian.AppendUint32(p.args, uint32(e.FetchAddr))
	}
	if tag&tagLat != 0 {
		p.args = append(p.args, byte(e.Latency))
	}
	if tag&(tagMem|tagSkipData) == tagMem {
		p.appendData(e.MemAddr)
	}
}

// bit is b if v, else 0.
func bit(v bool, b byte) byte {
	if v {
		return b
	}
	return 0
}

// flush emits the pending segment, if any: a lone instruction as its
// plain record, one-cycle instructions without branches or data accesses
// as runs, anything else as one segment record.
func (p *packer) flush() {
	s := p.seg
	p.seg.k, p.seg.extra, p.seg.taken, p.seg.reads, p.seg.writes = 0, 0, 0, 0, 0
	switch {
	case s.k == 0:
	case s.extra == 0 && s.taken == 0 && s.reads == 0 && s.writes == 0:
		for ; s.k > 0; s.k -= min(s.k, maxRun) {
			p.tags = append(p.tags, tagSpecial|byte(min(s.k, maxRun)))
		}
	case s.k == 1:
		p.tags = append(p.tags, p.segTag)
		if p.segTag&tagLat != 0 {
			p.args = append(p.args, byte(s.extra+1))
		}
	default:
		p.tags = append(p.tags, tagSegment+byte(s.k-1))
		p.args = append(p.args, byte(s.reads|s.writes<<3|s.taken<<6), byte(s.extra))
	}
}

// appendData appends data address a as a delta d from one of two bases:
// the last address carried (sel 0) and the one before it from elsewhere
// (sel 1), so code alternating between two arrays finds each one's last
// access in a base. It takes two little-endian bytes, d<<1|sel, when
// |d| < 1<<14, else the escape math.MinInt16 and a itself. Then a becomes
// base 0 and base 1 the base not used (the old base 0 after an escape).
func (p *packer) appendData(a uint64) {
	fits := func(d int64) bool { return d > -1<<14 && d < 1<<14 }
	d0, d1 := int64(a-p.data[0]), int64(a-p.data[1])
	sel, d := int64(0), d0
	if !fits(d0) || fits(d1) && max(d1, -d1) < max(d0, -d0) {
		sel, d = 1, d1
	}
	if fits(d) {
		p.args = binary.LittleEndian.AppendUint16(p.args, uint16(d<<1|sel))
	} else {
		p.args = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint16(p.args, 1<<15), a)
		sel = 1
	}
	if sel == 1 {
		p.data[1] = p.data[0]
	}
	p.data[0] = a
}

// dataAddr decodes the data address at the argument cursor (see
// appendData).
func (c *Core) dataAddr() uint64 {
	i := c.apos
	v := int16(uint16(c.rargs[i]) | uint16(c.rargs[i+1])<<8)
	c.apos = i + 2
	if v == math.MinInt16 {
		a := binary.LittleEndian.Uint64(c.rargs[c.apos:])
		c.apos += 8
		c.rdata, c.rdata1 = a, c.rdata
		return a
	}
	base, other := c.rdata, c.rdata1
	if v&1 != 0 {
		base, other = other, base
	}
	a := base + uint64(v>>1)
	c.rdata, c.rdata1 = a, other
	return a
}

// replayRun retires a run of n one-cycle instructions fetching on the
// IL1's memo line.
func (c *Core) replayRun(n uint64) {
	c.Clock += int64(n)
	c.execCycles += int64(n)
	c.retired += n
	c.IL1.BulkMemoHits(n)
}

// replaySpecial decodes the special record, other than a run, whose tag b
// was just read: it applies a segment whole and reports it, or flags the
// final record in c.rtag. A segment's accesses are all same-line hits, so
// it is one clock bump and bulk statistics updates — what replaying it
// instruction by instruction would do; its data accesses all land on the
// DL1's memo line, so its stores are one MemoWriteHits call.
func (c *Core) replaySpecial(b byte) (applied bool) {
	switch {
	case b >= tagSegment:
	case b == tagFaultNoFetch:
		c.rtag = recFault | recNoFetch
		return false
	default:
		flag := uint16(recHalt)
		if b == tagFaultNext {
			flag = recFault
		}
		c.rtag = uint16(c.rtags[c.rpos]) | flag
		c.rpos++
		return false
	}
	a := c.rargs[c.apos : c.apos+2]
	c.apos += 2
	reads, writes, taken := uint64(a[0]&7), uint64(a[0]>>3&7), uint64(a[0]>>6)
	c.replayRun(uint64(b-tagSegment) + 1)
	adv := int64(a[1]) + int64(taken)*c.BranchPenalty
	c.Clock += adv
	c.execCycles += adv
	c.stats.TakenBranches += taken
	if reads > 0 {
		c.DL1.BulkMemoHits(reads)
	}
	if writes > 0 {
		c.DL1.MemoWriteHits(writes)
	}
	return true
}

// rewindReplay moves the replay cursors to the start of the trace.
func (c *Core) rewindReplay() {
	c.rpos, c.apos = 0, 0
	c.fline = isa.CodeBase>>c.rshift - 1
	c.rdata, c.rdata1 = noData, isa.DataBase
}

// ReplayLineBytes returns the line size of the elided traces the core
// replays — the smaller of its L1 lines — or 0 when it replays only exact
// ones. Elision needs stateless read hits (TR/EoM; under TD every hit
// reorders LRU recency) and a write-back DL1: a write-through
// no-allocate store can leave its line unallocated.
func (c *Core) ReplayLineBytes() int {
	if !c.IL1.StatelessReadHits() || !c.DL1.StatelessReadHits() || c.WriteThrough {
		return 0
	}
	return min(c.IL1.Config().LineBytes, c.DL1.Config().LineBytes)
}

// SetReplay attaches (or, with nil, detaches) a recorded trace, which
// then replaces the interpreter as Step's instruction source: each record
// feeds the same fetch, retire and data-access code an interpreted
// instruction does, so accesses, pending requests, stats and clock
// advances are identical, at the cost of decoding a few bytes. Reset
// keeps the attachment and rewinds the cursors. Attach after setting
// WriteThrough. Panics if the trace's program image differs from the
// core's, or the trace elides for lines the core cannot elide for
// (same-line at the trace's line size implies same-line at any coarser).
func (c *Core) SetReplay(t *Trace) {
	if t != nil && !t.prog.SameImage(c.M.Prog) {
		panic("cpu: replay trace recorded from a different program")
	}
	if t != nil && t.lineBytes != 0 && (c.ReplayLineBytes() == 0 || c.ReplayLineBytes() < t.lineBytes) {
		panic(fmt.Sprintf("cpu: trace elides for %d-byte lines, core %d for %d", t.lineBytes, c.ID, c.ReplayLineBytes()))
	}
	c.replay, c.rtags, c.rargs = t, nil, nil
	if t != nil {
		c.rtags, c.rargs, c.rshift = t.tags, t.args, t.shift
		c.rewindReplay()
	}
}

// Replaying reports whether a trace is attached.
func (c *Core) Replaying() bool { return c.replay != nil }

// EnableReplayBurst lets the replaying core retire any number of hitting
// instructions inside one Step call instead of yielding NeedNone per
// instruction. Between first-level misses the core mutates only its own
// L1s and clock (hitting work draws no randomness and touches no shared
// resource), so the simulator sees the same events however many retires
// one Step covers, provided it places a stalling step by that step's own
// start clock (StepStart). The burst yields at the first retire past
// maxInstr, the instruction-ceiling check; nothing in it reads the clock,
// so a burst retires the same instructions whatever clock it starts at. A
// segment retires its instructions together, so a trace longer than
// maxInstr can overshoot the bound; simulators attach only traces that
// fit it. An interpreting core never bursts: on a coherent platform its
// hitting stores call Coh.Touch, which is shared state.
func (c *Core) EnableReplayBurst(maxInstr uint64) { c.replayBurstCap = maxInstr }

// bursting reports whether a replaying core in burst mode keeps retiring
// inside the current Step call.
func (c *Core) bursting() bool {
	return c.replay != nil && c.replayBurstCap > 0 && c.retired <= c.replayBurstCap
}
