package cpu

import (
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/rng"
)

// coreFP is a comparable fingerprint of everything the simulator observes
// of a core run to completion under the perfect-L1-backing harness.
type coreFP struct {
	clock    int64
	exec     int64
	retired  uint64
	stats    Stats
	il1, dl1 cache.Stats
	fault    bool
}

func fingerprint(t *testing.T, c *Core) coreFP {
	t.Helper()
	err := c.RunIsolatedPerfect(10, 1<<22)
	if err != nil && c.fault == nil {
		t.Fatal(err)
	}
	return coreFP{
		clock:   c.Clock,
		exec:    c.ExecCycles(),
		retired: c.Retired(),
		stats:   c.Stats(),
		il1:     c.IL1.Stats(),
		dl1:     c.DL1.Stats(),
		fault:   c.Fault() != nil,
	}
}

// replayVariant is one core configuration the replay path must match the
// interpreter on. Each variant switches off (or on) a different replay-only
// shortcut: TD L1s (stateful read hits) and a write-through DL1 replay an
// exact trace, a DL1 line larger than the IL1's elides at the IL1's line
// size, and burst mode retires many instructions per Step.
type replayVariant struct {
	name         string
	il1, dl1     cache.Config
	writeThrough bool
	burst        bool
}

func replayVariants() []replayVariant {
	tr := func(line int) cache.Config {
		return cache.Config{Name: "L1", SizeBytes: 4096, Ways: 4, LineBytes: line, Policy: cache.TimeRandomised}
	}
	td := tr(16)
	td.Policy = cache.TimeDeterministic
	return []replayVariant{
		{name: "EoM", il1: tr(16), dl1: tr(16)},
		{name: "TD", il1: td, dl1: td},
		{name: "write-through", il1: tr(16), dl1: tr(16), writeThrough: true},
		{name: "dl1-line32", il1: tr(16), dl1: tr(32)},
		{name: "burst", il1: tr(16), dl1: tr(16), burst: true},
	}
}

// newVariantCore builds core 0 for prog under v, seeding its L1s from seed.
func newVariantCore(t *testing.T, prog *isa.Program, seed uint64, v replayVariant) *Core {
	t.Helper()
	m, err := isa.NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	c := New(0, m, cache.New(v.il1, src.Fork()), cache.New(v.dl1, src.Fork()))
	c.WriteThrough = v.writeThrough
	return c
}

// TestReplayMatchesInterpreter pins the replay path to the interpreter
// path: same program, same cache seeds => identical clocks, pipeline and
// cache statistics and retirement counts, for every bench kernel under
// every replay variant, each replaying the trace packed for it.
func TestReplayMatchesInterpreter(t *testing.T) {
	variants := replayVariants()
	for _, spec := range bench.AllWithExtended() {
		prog := spec.Build()
		traces := map[int]*Trace{}
		t.Run(spec.Code, func(t *testing.T) {
			for _, v := range variants {
				want := fingerprint(t, newVariantCore(t, prog, 42, v))
				got := newVariantCore(t, prog, 42, v)
				line := got.ReplayLineBytes()
				if traces[line] == nil {
					tr, err := RecordTraceFor(prog, 1<<22, line)
					if err != nil {
						t.Fatal(err)
					}
					traces[line] = tr
				}
				got.SetReplay(traces[line])
				if v.burst {
					got.EnableReplayBurst(1 << 22)
				}
				if fp := fingerprint(t, got); fp != want {
					t.Fatalf("%s: replay diverged:\n got %+v\nwant %+v", v.name, fp, want)
				}

				// A reset replay core re-runs identically without
				// re-recording.
				got.Reset()
				if fp := fingerprint(t, got); fp.retired != want.retired || fp.fault != want.fault {
					t.Fatalf("%s: replay after Reset diverged: %+v vs %+v", v.name, fp, want)
				}
			}
		})
	}
}

// TestTraceBytes pins the packed traces' size: every kernel's trace for
// 16-byte lines takes at most an eighth of the 36 bytes per instruction
// the unpacked entries and their segment index took, and the sixteen
// kernels' traces total at most 4 MiB.
func TestTraceBytes(t *testing.T) {
	var total int64
	for _, spec := range bench.AllWithExtended() {
		tr, err := RecordTrace(spec.Build(), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		if limit := int64(tr.Len()) * 36 / 8; tr.Bytes() > limit {
			t.Errorf("%s: %d bytes for %d instructions, limit %d", spec.Code, tr.Bytes(), tr.Len(), limit)
		}
		total += tr.Bytes()
	}
	if total > 4<<20 {
		t.Errorf("the kernels' traces take %d bytes, limit %d", total, 4<<20)
	}
}

// TestReplayFault pins fault semantics under replay: no retirement of the
// faulting slot, the same stored fault, a halted core — for both fault
// shapes (out-of-range PC, which skips the fetch, and division by zero,
// which faults after a normal fetch).
func TestReplayFault(t *testing.T) {
	oob := isa.NewBuilder("oob")
	oob.Addi(1, 1, 1) // no HALT: PC runs off the end
	div0 := isa.NewBuilder("div0")
	div0.Movi(2, 0)
	div0.Div(1, 1, 2)
	div0.Halt()

	for _, prog := range []*isa.Program{oob.MustProgram(), div0.MustProgram()} {
		ref := newCore(t, prog, 7)
		want := fingerprint(t, ref)
		if !want.fault {
			t.Fatalf("%s: reference run did not fault", prog.Name)
		}

		tr, err := RecordTrace(prog, 1000)
		if err != nil {
			t.Fatal(err)
		}
		got := newCore(t, prog, 7)
		got.SetReplay(tr)
		if fp := fingerprint(t, got); fp != want {
			t.Fatalf("%s: faulting replay diverged:\n got %+v\nwant %+v", prog.Name, fp, want)
		}
		if got.Fault() == nil || got.Fault().Error() != ref.Fault().Error() {
			t.Fatalf("%s: fault mismatch: %v vs %v", prog.Name, got.Fault(), ref.Fault())
		}
	}
}

// TestRunIsolatedPerfectInstrBound pins RunIsolatedPerfect's instruction
// bound on both instruction sources: a replaying core must stop at the
// bound exactly as an interpreting one does.
func TestRunIsolatedPerfectInstrBound(t *testing.T) {
	prog := straightLine(50)
	tr, err := RecordTrace(prog, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, replay := range []bool{false, true} {
		c := newCore(t, prog, 11)
		if replay {
			c.SetReplay(tr)
		}
		if err := c.RunIsolatedPerfect(10, 10); err == nil {
			t.Errorf("replay=%v: %d instructions ran under a 10-instruction bound", replay, c.Retired())
		}
	}
}

// TestRecordTraceCap ensures non-terminating programs are rejected rather
// than looping forever.
func TestRecordTraceCap(t *testing.T) {
	b := isa.NewBuilder("loop")
	b.Label("top")
	b.Jmp("top")
	prog := b.MustProgram()
	if _, err := RecordTrace(prog, 1000); err == nil {
		t.Fatal("expected cap error for non-terminating program")
	}
}

// TestSetReplayProgGuard ensures a trace cannot be attached to a core
// running a different program.
func TestSetReplayProgGuard(t *testing.T) {
	p1 := straightLine(4)
	p2 := straightLine(5)
	tr, err := RecordTrace(p1, 100)
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(t, p2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on program mismatch")
		}
	}()
	c.SetReplay(tr)
}

// BenchmarkCoreStepKernels times whole isolated runs of every paper kernel
// through Step, interpreted and replayed (in burst mode, as analysis runs
// replay). Unlike BenchmarkCoreStepAllHit, the kernels' loads and stores
// reach the data-access path.
func BenchmarkCoreStepKernels(b *testing.B) {
	for _, spec := range bench.All() {
		prog := spec.Build()
		tr, err := RecordTrace(prog, 1<<22)
		if err != nil {
			b.Fatal(err)
		}
		for _, replay := range []bool{false, true} {
			name := spec.Code + "/interpreted"
			if replay {
				name = spec.Code + "/replayed"
			}
			b.Run(name, func(b *testing.B) {
				m, err := isa.NewMachine(prog)
				if err != nil {
					b.Fatal(err)
				}
				src := rng.New(1)
				c := New(0, m, l1(src.Fork()), l1(src.Fork()))
				if replay {
					c.SetReplay(tr)
					c.EnableReplayBurst(1 << 22)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Reset()
					if err := c.RunIsolatedPerfect(10, 1<<22); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*c.Retired()), "ns/instr")
			})
		}
	}
}
