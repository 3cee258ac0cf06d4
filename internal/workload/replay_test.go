package workload

import (
	"testing"

	"efl/internal/isa"
	"efl/internal/sim"
	"efl/internal/trace"
)

// TestReplayFidelity pins the compilation contract: the replayed program's
// dynamic memory-access stream is exactly the trace's — same addresses,
// same load/store kinds, separated by exactly the recorded gaps — and the
// dynamic instruction count is exactly Meta.ReplayInstr.
func TestReplayFidelity(t *testing.T) {
	spec := testSpec()
	spec.MeanGap = 5 // exercise both gap forms: literal NOPs and loops
	data := genTrace(t, spec)
	meta, err := Validate(data)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	records := decodeAll(t, data)
	prog, err := Replay("fidelity", data)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if prog.DataSize != int(meta.DataBytes) {
		t.Fatalf("DataSize = %d, want %d", prog.DataSize, meta.DataBytes)
	}
	m, err := isa.NewMachine(prog)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	var steps []isa.StepInfo
	var info isa.StepInfo
	for !m.Halted() {
		if err := m.StepInto(&info); err != nil {
			t.Fatalf("step %d: %v", len(steps), err)
		}
		steps = append(steps, info)
		if uint64(len(steps)) > meta.ReplayInstr {
			t.Fatalf("program ran past the declared %d-instruction replay", meta.ReplayInstr)
		}
	}
	if uint64(len(steps)) != meta.ReplayInstr {
		t.Fatalf("dynamic instructions = %d, want Meta.ReplayInstr = %d", len(steps), meta.ReplayInstr)
	}
	// Walk the stream: prologue, then per record one access followed by
	// exactly Gap idle instructions, then HALT.
	pos := 0
	if steps[pos].Op.IsMem() {
		t.Fatalf("step 0 is a memory access, want the prologue")
	}
	pos++
	for i, rec := range records {
		s := steps[pos]
		if !s.Op.IsMem() {
			t.Fatalf("record %d: step %d is %v, want a memory access", i, pos, s.Op)
		}
		if want := isa.DataBase + rec.Addr; s.MemAddr != want {
			t.Fatalf("record %d: address %#x, want %#x", i, s.MemAddr, want)
		}
		if s.MemWrite != rec.Store {
			t.Fatalf("record %d: write=%v, want %v", i, s.MemWrite, rec.Store)
		}
		pos++
		for g := uint32(0); g < rec.Gap; g++ {
			if steps[pos].Op.IsMem() {
				t.Fatalf("record %d: gap instruction %d of %d is a memory access", i, g, rec.Gap)
			}
			pos++
		}
	}
	if last := steps[pos]; last.Op != isa.HALT || !last.Halted {
		t.Fatalf("final step is %v (halted=%v), want HALT", last.Op, last.Halted)
	}
	if pos+1 != len(steps) {
		t.Fatalf("stream has %d steps past the records, want 1 (HALT)", len(steps)-pos)
	}
}

// TestReplayAuditedRun runs a four-core traced workload — private
// footprints plus a shared coherent window — under the full deployment
// machinery with every auditor invariant armed, including A5 from the
// run's coherence trace.
func TestReplayAuditedRun(t *testing.T) {
	const shared = 64
	cfg := sim.DefaultConfig().WithEFL(1000)
	cfg.SharedDataBytes = shared
	progs := make([]*isa.Program, cfg.Cores)
	for i := range progs {
		spec := GenSpec{
			Name: "core", Seed: uint64(100 + i), Records: 400,
			FootprintBytes: 4096, SharedBytes: shared, SharedFrac: 0.3,
			Locality: 0.5, StoreFrac: 0.4, MeanGap: 2, BlockLen: 64,
		}
		data := genTrace(t, spec)
		prog, err := Replay("traced", data)
		if err != nil {
			t.Fatalf("Replay core %d: %v", i, err)
		}
		progs[i] = prog
	}
	pool := sim.NewPool()
	aud := sim.NewAuditor()
	pool.SetAuditor(aud)
	buf := trace.NewBuffer(1<<20).Keep(
		trace.EvCohFetch, trace.EvCohUpgrade, trace.EvCohInval, trace.EvCohHit)
	var res sim.Result
	for run := 0; run < 3; run++ {
		m, err := pool.Get(cfg, progs, 42+uint64(run))
		if err != nil {
			t.Fatalf("Get run %d: %v", run, err)
		}
		buf.Reset()
		m.SetTracer(buf)
		err = m.RunInto(&res)
		m.SetTracer(nil)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if err := pool.AuditRun(cfg, &res); err != nil {
			t.Fatalf("audit run %d: %v", run, err)
		}
		if err := aud.CheckCoherence(cfg, buf.Events()); err != nil {
			t.Fatalf("coherence audit run %d: %v", run, err)
		}
	}
	rep := aud.Report()
	var checks, violations int64
	for name, iv := range rep.Invariants {
		checks += iv.Checks
		violations += iv.Violations
		if iv.Violations > 0 {
			t.Errorf("invariant %s: %d violations", name, iv.Violations)
		}
	}
	if checks == 0 {
		t.Fatal("auditor performed no checks")
	}
	if a5 := rep.Invariants[sim.AuditCoherence]; a5.Checks == 0 {
		t.Fatal("A5 (coherence) was never checked")
	}
}

// TestReplayStreamMatchesFresh pins per-index seeding on a traced workload: run
// i of a stream is exactly a fresh analysis run under seedFor(i).
func TestReplayStreamMatchesFresh(t *testing.T) {
	data := genTrace(t, testSpec())
	prog, err := Replay("lockstep", data)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	cfg := sim.DefaultConfig().WithEFL(1000)
	seedFor := func(i int) uint64 { return 9000 + 7*uint64(i) }
	const runs = 24
	var times []float64
	n, err := sim.NewPool().StreamAnalysisTimes(nil, cfg, prog, 0, runs, seedFor,
		func(v float64) bool { times = append(times, v); return false })
	if err != nil {
		t.Fatalf("StreamAnalysisTimes: %v", err)
	}
	if n != runs {
		t.Fatalf("consumed %d runs, want %d", n, runs)
	}
	progs := make([]*isa.Program, cfg.Cores)
	progs[0] = prog
	for i, got := range times {
		m, err := sim.New(cfg.WithAnalysis(0), progs, seedFor(i))
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(want.PerCore[0].Cycles) {
			t.Fatalf("run %d: streamed time %v != fresh run time %d", i, got, want.PerCore[0].Cycles)
		}
	}
}
