// Package isa defines the small RISC instruction set the simulated cores
// execute, together with a functional interpreter (Machine), an assembler
// and a disassembler.
//
// The paper evaluates EEMBC Autobench programs on a simple 4-stage in-order
// core (§4.1). Those benchmarks are proprietary, so this repository ships
// behaviour-equivalent kernels written in this ISA (package bench); the ISA
// is deliberately minimal — enough to express loops, integer arithmetic,
// table lookups and pointer chasing, the ingredients of the Autobench
// memory behaviour classes.
//
// Memory layout: instructions occupy 4 bytes each starting at CodeBase;
// data lives in a single segment starting at DataBase. Loads and stores
// move 8-byte words. Cache-relevant addresses are byte addresses, so a
// 16-byte cache line holds 4 instructions or 2 data words.
package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Address-space layout constants.
const (
	// CodeBase is the byte address of instruction index 0.
	CodeBase uint64 = 0x0000_0000
	// DataBase is the byte address of data-segment offset 0.
	DataBase uint64 = 0x4000_0000
	// InstrBytes is the encoded size of one instruction.
	InstrBytes = 4
	// WordBytes is the size of a data word moved by LD/ST.
	WordBytes = 8
)

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. Three-register ALU ops compute Rd = Rs <op> Rt; immediate forms
// compute Rd = Rs <op> Imm. LD loads Rd from [Rs+Imm]; ST stores Rt to
// [Rs+Imm]. Branches compare Rs against Rt and jump to Target.
const (
	NOP Op = iota
	HALT
	MOVI // Rd = Imm
	ADD  // Rd = Rs + Rt
	ADDI // Rd = Rs + Imm
	SUB  // Rd = Rs - Rt
	MUL  // Rd = Rs * Rt
	DIV  // Rd = Rs / Rt (Rt==0 faults)
	REM  // Rd = Rs % Rt (Rt==0 faults)
	AND  // Rd = Rs & Rt
	OR   // Rd = Rs | Rt
	XOR  // Rd = Rs ^ Rt
	SHL  // Rd = Rs << (Rt & 63)
	SHR  // Rd = int64(Rs) >> (Rt & 63)
	LD   // Rd = mem64[Rs + Imm]
	ST   // mem64[Rs + Imm] = Rt
	BEQ  // if Rs == Rt goto Target
	BNE  // if Rs != Rt goto Target
	BLT  // if Rs <  Rt goto Target
	BGE  // if Rs >= Rt goto Target
	JMP  // goto Target
	numOps
)

var opNames = [numOps]string{
	"nop", "halt", "movi", "add", "addi", "sub", "mul", "div", "rem",
	"and", "or", "xor", "shl", "shr", "ld", "st",
	"beq", "bne", "blt", "bge", "jmp",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Latency returns the execute-stage latency of the opcode in cycles
// (paper §4.1: fixed execution latencies, e.g. integer additions take
// 1 cycle). Memory latencies are determined by the cache hierarchy, not
// here; LD/ST report 1 for the address-generation step.
func (o Op) Latency() int64 {
	switch o {
	case MUL:
		return 3
	case DIV, REM:
		return 12
	default:
		return 1
	}
}

// IsBranch reports whether the opcode is a control-flow instruction.
func (o Op) IsBranch() bool {
	switch o {
	case BEQ, BNE, BLT, BGE, JMP:
		return true
	}
	return false
}

// IsMem reports whether the opcode accesses data memory.
func (o Op) IsMem() bool { return o == LD || o == ST }

// NumRegs is the architectural register count.
const NumRegs = 16

// Instr is one decoded instruction.
type Instr struct {
	Op     Op
	Rd     uint8 // destination register
	Rs     uint8 // first source register / address base
	Rt     uint8 // second source register / store data
	Imm    int64 // immediate / address offset
	Target int   // branch/jump target (instruction index)
}

// Validate reports whether the instruction's register fields are in range
// and its target (for branches) is within a program of length n.
func (i Instr) Validate(n int) error {
	if i.Rd >= NumRegs || i.Rs >= NumRegs || i.Rt >= NumRegs {
		return fmt.Errorf("isa: register out of range in %v", i)
	}
	if i.Op.IsBranch() && (i.Target < 0 || i.Target >= n) {
		return fmt.Errorf("isa: branch target %d outside program of %d instructions", i.Target, n)
	}
	if i.Op >= numOps {
		return fmt.Errorf("isa: unknown opcode %d", i.Op)
	}
	return nil
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	switch i.Op {
	case NOP, HALT:
		return i.Op.String()
	case MOVI:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case ADDI:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs, i.Imm)
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SHL, SHR:
		return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs, i.Rt)
	case LD:
		return fmt.Sprintf("ld r%d, %d(r%d)", i.Rd, i.Imm, i.Rs)
	case ST:
		return fmt.Sprintf("st r%d, %d(r%d)", i.Rt, i.Imm, i.Rs)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s r%d, r%d, @%d", i.Op, i.Rs, i.Rt, i.Target)
	case JMP:
		return fmt.Sprintf("jmp @%d", i.Target)
	default:
		return fmt.Sprintf("%v?", i.Op)
	}
}

// Program is an executable unit: code plus an initialised data segment.
type Program struct {
	Name string
	Code []Instr
	// Data is the initial contents of the data segment (byte-addressed
	// from DataBase). The segment the Machine allocates is at least
	// DataSize bytes; Data may be shorter (the rest is zero).
	Data []byte
	// DataSize is the data segment size in bytes; if 0, len(Data) is used.
	DataSize int
}

// Validate checks the whole program.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q has no code", p.Name)
	}
	for idx, ins := range p.Code {
		if err := ins.Validate(len(p.Code)); err != nil {
			return fmt.Errorf("isa: %q instruction %d: %w", p.Name, idx, err)
		}
	}
	if p.DataSize < len(p.Data) && p.DataSize != 0 {
		return fmt.Errorf("isa: %q DataSize %d smaller than initial data %d", p.Name, p.DataSize, len(p.Data))
	}
	return nil
}

// SegmentSize returns the data segment size the machine must allocate.
func (p *Program) SegmentSize() int {
	if p.DataSize > len(p.Data) {
		return p.DataSize
	}
	return len(p.Data)
}

// SameImage reports whether p and o execute identically: the same code,
// initial data and data-segment size. Names are ignored.
func (p *Program) SameImage(o *Program) bool {
	return p == o || p.DataSize == o.DataSize && slices.Equal(p.Code, o.Code) && bytes.Equal(p.Data, o.Data)
}

// InstrAddr returns the byte address of instruction index idx.
func InstrAddr(idx int) uint64 { return CodeBase + uint64(idx)*InstrBytes }

// Fault describes a runtime error raised by the interpreter.
type Fault struct {
	PC     int
	Instr  Instr
	Reason string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("isa: fault at pc=%d (%v): %s", f.PC, f.Instr, f.Reason)
}

// StepInfo describes the dynamic instruction just executed — everything the
// timing model needs.
type StepInfo struct {
	Index     int    // static instruction index (pre-execution PC)
	FetchAddr uint64 // byte address fetched
	Op        Op
	MemAddr   uint64 // valid when Op.IsMem()
	MemWrite  bool
	Taken     bool // branch taken (JMP counts as taken)
	Halted    bool
}

// Machine is the functional interpreter state for one core.
type Machine struct {
	Prog *Program
	Regs [NumRegs]int64
	PC   int
	Data []byte
	// Steps counts executed instructions (dynamic instruction count).
	Steps uint64
	// halted latches HALT.
	halted bool
}

// NewMachine allocates the machine state for prog. The program is validated.
func NewMachine(prog *Program) (*Machine, error) {
	m := &Machine{}
	if err := m.Load(prog); err != nil {
		return nil, err
	}
	m.Reset()
	return m, nil
}

// Load re-targets the machine to prog, which is validated, leaving the
// machine state to the next Reset: until then the machine must not run.
// On error the machine is unchanged. A machine that swaps programs this
// way allocates only when a program's data segment outgrows its buffer.
func (m *Machine) Load(prog *Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	m.Prog = prog
	return nil
}

// Reset rewinds the machine to its program's initial state (fresh
// registers, PC and data segment) for a new run, reusing the data
// segment's buffer when the segment fits in it.
func (m *Machine) Reset() {
	m.Regs = [NumRegs]int64{}
	m.PC = 0
	m.Steps = 0
	m.halted = false
	if n := m.Prog.SegmentSize(); cap(m.Data) < n {
		m.Data = make([]byte, n)
	} else {
		m.Data = m.Data[:n]
		clear(m.Data)
	}
	copy(m.Data, m.Prog.Data)
}

// Halted reports whether the machine has executed HALT (or faulted).
func (m *Machine) Halted() bool { return m.halted }

// read64 loads a data word; addr is a byte address.
func (m *Machine) read64(addr uint64) (int64, bool) {
	if addr < DataBase {
		return 0, false
	}
	off := addr - DataBase
	if off+WordBytes > uint64(len(m.Data)) {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(m.Data[off:])), true
}

// write64 stores a data word; addr is a byte address.
func (m *Machine) write64(addr uint64, val int64) bool {
	if addr < DataBase {
		return false
	}
	off := addr - DataBase
	if off+WordBytes > uint64(len(m.Data)) {
		return false
	}
	binary.LittleEndian.PutUint64(m.Data[off:], uint64(val))
	return true
}

// ReadWord exposes data-segment reads for tests and result checking;
// off is a byte offset from DataBase.
func (m *Machine) ReadWord(off uint64) (int64, error) {
	v, ok := m.read64(DataBase + off)
	if !ok {
		return 0, fmt.Errorf("isa: ReadWord offset %d out of segment", off)
	}
	return v, nil
}

// Step executes one instruction and returns its StepInfo. Calling Step on a
// halted machine returns Halted=true without executing. A fault (bad
// address, division by zero) halts the machine and returns the fault.
func (m *Machine) Step() (StepInfo, error) {
	var info StepInfo
	err := m.StepInto(&info)
	return info, err
}

// StepInto is Step writing through a caller-owned StepInfo — the timing
// model calls it once per simulated instruction, and skipping the struct
// return copy is measurable at that rate.
func (m *Machine) StepInto(info *StepInfo) error {
	if m.halted {
		*info = StepInfo{Halted: true}
		return nil
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Code) {
		m.halted = true
		*info = StepInfo{Halted: true}
		return &Fault{PC: m.PC, Reason: "pc out of range"}
	}
	ins := m.Prog.Code[m.PC]
	*info = StepInfo{Index: m.PC, FetchAddr: InstrAddr(m.PC), Op: ins.Op}
	// Register indices are validated < NumRegs at program load; the masks
	// restate that bound where the compiler can see it, eliminating the
	// bounds check on every register file access.
	rd, rs, rt := ins.Rd&(NumRegs-1), ins.Rs&(NumRegs-1), ins.Rt&(NumRegs-1)
	next := m.PC + 1
	fault := func(reason string) error {
		m.halted = true
		info.Halted = true
		return &Fault{PC: m.PC, Instr: ins, Reason: reason}
	}
	switch ins.Op {
	case NOP:
	case HALT:
		m.halted = true
		info.Halted = true
	case MOVI:
		m.Regs[rd] = ins.Imm
	case ADD:
		m.Regs[rd] = m.Regs[rs] + m.Regs[rt]
	case ADDI:
		m.Regs[rd] = m.Regs[rs] + ins.Imm
	case SUB:
		m.Regs[rd] = m.Regs[rs] - m.Regs[rt]
	case MUL:
		m.Regs[rd] = m.Regs[rs] * m.Regs[rt]
	case DIV:
		if m.Regs[rt] == 0 {
			return fault("division by zero")
		}
		m.Regs[rd] = m.Regs[rs] / m.Regs[rt]
	case REM:
		if m.Regs[rt] == 0 {
			return fault("remainder by zero")
		}
		m.Regs[rd] = m.Regs[rs] % m.Regs[rt]
	case AND:
		m.Regs[rd] = m.Regs[rs] & m.Regs[rt]
	case OR:
		m.Regs[rd] = m.Regs[rs] | m.Regs[rt]
	case XOR:
		m.Regs[rd] = m.Regs[rs] ^ m.Regs[rt]
	case SHL:
		m.Regs[rd] = m.Regs[rs] << uint64(m.Regs[rt]&63)
	case SHR:
		m.Regs[rd] = m.Regs[rs] >> uint64(m.Regs[rt]&63)
	case LD:
		addr := uint64(m.Regs[rs] + ins.Imm)
		v, ok := m.read64(addr)
		if !ok {
			return fault(fmt.Sprintf("load from %#x outside data segment", addr))
		}
		m.Regs[rd] = v
		info.MemAddr = addr
	case ST:
		addr := uint64(m.Regs[rs] + ins.Imm)
		if !m.write64(addr, m.Regs[rt]) {
			return fault(fmt.Sprintf("store to %#x outside data segment", addr))
		}
		info.MemAddr = addr
		info.MemWrite = true
	case BEQ:
		if m.Regs[rs] == m.Regs[rt] {
			next = ins.Target
			info.Taken = true
		}
	case BNE:
		if m.Regs[rs] != m.Regs[rt] {
			next = ins.Target
			info.Taken = true
		}
	case BLT:
		if m.Regs[rs] < m.Regs[rt] {
			next = ins.Target
			info.Taken = true
		}
	case BGE:
		if m.Regs[rs] >= m.Regs[rt] {
			next = ins.Target
			info.Taken = true
		}
	case JMP:
		next = ins.Target
		info.Taken = true
	default:
		return fault("unknown opcode")
	}
	m.PC = next
	m.Steps++
	return nil
}

// Run executes until HALT or maxSteps instructions, returning the dynamic
// instruction count. It is the pure-functional fast path used by tests and
// by benchmark calibration (no timing).
func (m *Machine) Run(maxSteps uint64) (uint64, error) {
	start := m.Steps
	for !m.halted {
		if m.Steps-start >= maxSteps {
			return m.Steps - start, fmt.Errorf("isa: %q exceeded %d steps", m.Prog.Name, maxSteps)
		}
		if _, err := m.Step(); err != nil {
			return m.Steps - start, err
		}
	}
	return m.Steps - start, nil
}
