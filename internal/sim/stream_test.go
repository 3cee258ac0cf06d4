package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"efl/internal/isa"
)

// streamPlatforms returns a fresh and a pooled platform running a 4-core
// deployment under cfg, both seeded with seed.
func streamPlatforms(t *testing.T, cfg Config, seed uint64) map[string]*Multicore {
	t.Helper()
	progs := func() []*isa.Program {
		return []*isa.Program{goldenProg(), loopProg("s1", 512, 2), goldenProg(), loopProg("s3", 128, 5)}
	}
	fresh, err := New(cfg, progs(), seed)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := NewPool().Get(cfg, progs(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Multicore{"new": fresh, "pooled": pooled}
}

// runRecovering runs m once, returning the value of a panic RunInto
// raised on this goroutine and the run's error.
func runRecovering(m *Multicore) (panicked any, err error) {
	defer func() { panicked = recover() }()
	var res Result
	return nil, m.RunInto(&res)
}

// waitGoroutines waits briefly for the goroutine count to fall back to
// want: an exiting goroutine is counted until it has unwound.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the run, %d before", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProducerPanicSurfaces pins that a panic on a producer goroutine is
// raised again by RunInto on the caller's goroutine, where a runner's
// recover isolates it: for a panic on a core's first record, before the
// loop starts, and on a later one, with chunks already consumed. Every
// producer has exited by then, and a rewound platform runs on as a fresh
// one does.
func TestProducerPanicSurfaces(t *testing.T) {
	cfg := DefaultConfig().WithEFL(500)
	for name, m := range streamPlatforms(t, cfg, 3) {
		for _, at := range []int{1, 3 * chunkLen} {
			base := runtime.NumGoroutine()
			m.Rewind(3)
			m.cores[1].prod.panicAt = at
			v, err := runRecovering(m)
			m.cores[1].prod.panicAt = 0
			if s, _ := v.(string); !strings.Contains(s, "producer panic injected") {
				t.Fatalf("%s, panic at record %d: RunInto returned err=%v, panic %v", name, at, err, v)
			}
			waitGoroutines(t, base, name)
		}
		m.Rewind(3)
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(cfg, m.progs, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceResult(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if gf, wf := goldenFingerprint(got), goldenFingerprint(want); gf != wf {
			t.Fatalf("%s: run after a producer panic diverged:\n got %s\nwant %s", name, gf, wf)
		}
	}
}

// referenceResult runs m once through the reference loop.
func referenceResult(m *Multicore) (*Result, error) {
	res := &Result{}
	if err := referenceRun(m, res); err != nil {
		return nil, err
	}
	return res, nil
}

// TestProducersExitWithRun pins that no producer outlives RunInto: the
// goroutine count returns to its baseline after a full run, a watchdog
// kill, an instruction-ceiling error and a producer panic, on fresh and
// pooled platforms. Each case runs twice, so a second run also starts
// from the buffers the failed one left.
func TestProducersExitWithRun(t *testing.T) {
	ceiling := DefaultConfig().WithEFL(500)
	ceiling.MaxInstrPerCore = 1_500
	cases := []struct {
		name  string
		cfg   Config
		setup func(*Multicore)
		check func(err error, panicked any) bool
	}{
		{"full", DefaultConfig().WithEFL(500), func(*Multicore) {},
			func(err error, v any) bool { return err == nil && v == nil }},
		{"watchdog", DefaultConfig().WithEFL(500), func(m *Multicore) { m.SetWatchdog(5_000) },
			func(err error, v any) bool { return errors.Is(err, ErrWatchdog) && v == nil }},
		{"instr-ceiling", ceiling, func(*Multicore) {},
			func(err error, v any) bool {
				return err != nil && strings.Contains(err.Error(), "exceeded 1500 instructions")
			}},
		{"panic", DefaultConfig().WithEFL(500), func(m *Multicore) { m.cores[2].prod.panicAt = chunkLen + 1 },
			func(err error, v any) bool { return v != nil }},
	}
	for _, tc := range cases {
		for name, m := range streamPlatforms(t, tc.cfg, 5) {
			base := runtime.NumGoroutine()
			for run := 1; run <= 2; run++ {
				tc.setup(m)
				if v, err := runRecovering(m); !tc.check(err, v) {
					t.Fatalf("%s on %s, run %d: err=%v, panic %v", tc.name, name, run, err, v)
				}
				waitGoroutines(t, base, tc.name+" on "+name)
			}
		}
	}
}
