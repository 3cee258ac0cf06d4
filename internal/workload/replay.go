package workload

// The replayer compiles a decoded trace into an isa.Program, so a traced
// workload flows through the exact machinery every hand-written kernel
// uses — sim.Pool, trace replay, the auditor invariants,
// fault injection, coherence on shared-footprint traces. Nothing
// downstream knows it is running a trace.
//
// Compilation scheme (register budget: r0 stays the architectural zero —
// it is never written — r1 holds the store data word, r2 receives loads,
// r14 counts gap loops):
//
//   - A record's access becomes one absolute-addressed instruction,
//     ld r2, imm(r0) or st r1, imm(r0) with imm = DataBase + Addr. The
//     zero register as base makes the address a pure immediate, so the
//     replayed address stream is exactly the trace's.
//   - A gap of g idle instructions becomes, for g <= 3, g literal NOPs;
//     for g >= 4, a countdown loop (movi r14,k; addi r14,r14,-1;
//     bne r14,r0,loop; plus 0..1 NOP) executing exactly g dynamic
//     instructions with at most 4 static ones. The loop form never emits
//     k == 0 (g >= 4 implies k >= 1), which would underflow past the
//     equality exit and spin forever.
//
// Dynamic and static instruction counts are both bounded by the format's
// MaxReplayInstr budget (static <= dynamic by the scheme above), which
// Validate enforces before any program is built.

import (
	"fmt"

	"efl/internal/isa"
)

// Replay registers.
const (
	regZero = 0  // architectural zero: never written
	regData = 1  // store data word
	regLoad = 2  // load destination
	regGap  = 14 // gap-loop counter
)

// Replay validates data and compiles it into a runnable program named
// name. The program's data segment is the trace's declared dataBytes
// (zero-initialised: a trace records addresses, not memory contents, and
// the timing model is value-oblivious).
func Replay(name string, data []byte) (*isa.Program, error) {
	meta, err := Validate(data)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	code := make([]isa.Instr, 0, meta.Records+2)
	code = append(code, isa.Instr{Op: isa.MOVI, Rd: regData, Imm: 1})
	var rec Record
	for {
		ok, err := r.Next(&rec)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		imm := int64(isa.DataBase + rec.Addr)
		if rec.Store {
			code = append(code, isa.Instr{Op: isa.ST, Rs: regZero, Rt: regData, Imm: imm})
		} else {
			code = append(code, isa.Instr{Op: isa.LD, Rd: regLoad, Rs: regZero, Imm: imm})
		}
		code = appendGap(code, rec.Gap)
	}
	code = append(code, isa.Instr{Op: isa.HALT})
	prog := &isa.Program{Name: name, Code: code, DataSize: int(meta.DataBytes)}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("workload: replay compiled an invalid program: %w", err)
	}
	return prog, nil
}

// appendGap emits exactly g dynamic idle instructions.
func appendGap(code []isa.Instr, g uint32) []isa.Instr {
	if g <= 3 {
		for i := uint32(0); i < g; i++ {
			code = append(code, isa.Instr{Op: isa.NOP})
		}
		return code
	}
	k := int64(g-1) / 2
	rem := int64(g-1) - 2*k // 0 or 1
	code = append(code, isa.Instr{Op: isa.MOVI, Rd: regGap, Imm: k})
	loop := len(code)
	code = append(code, isa.Instr{Op: isa.ADDI, Rd: regGap, Rs: regGap, Imm: -1})
	code = append(code, isa.Instr{Op: isa.BNE, Rs: regGap, Rt: regZero, Target: loop})
	if rem == 1 {
		code = append(code, isa.Instr{Op: isa.NOP})
	}
	return code
}
