package cpu

import (
	"reflect"
	"testing"

	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/rng"
)

// fuzzMaxInstr bounds a fuzzed program's run; longer ones are skipped.
const fuzzMaxInstr = 20_000

// fuzzRun is everything RunIsolatedPerfect exposes of a run, plus the
// sequence of shared transactions the core issued.
type fuzzRun struct {
	Retired  uint64
	Clock    int64
	Exec     int64
	Stats    Stats
	IL1, DL1 cache.Stats
	Requests []Request
	Fault    string
}

// runPerfect is RunIsolatedPerfect (every L1 miss costs 10 extra cycles)
// recording each transaction the core issues.
func runPerfect(c *Core) fuzzRun {
	var r fuzzRun
	for done := false; !done; {
		switch c.Step() {
		case NeedHalt:
			done = true
		case NeedLLC:
			t := c.Clock
			for c.HasPending() {
				r.Requests = append(r.Requests, c.PopRequest())
				t += 10
			}
			c.Resume(t)
		}
	}
	r.Retired, r.Clock, r.Exec, r.Stats = c.Retired(), c.Clock, c.ExecCycles(), c.Stats()
	r.IL1, r.DL1 = c.IL1.Stats(), c.DL1.Stats()
	if c.Fault() != nil {
		r.Fault = c.Fault().Error()
	}
	return r
}

// FuzzReplayMatchesInterpreter decodes a program image from isa's decoder
// (with the second input as its initial data), packs its trace elided for
// 16- and 64-byte lines and exact, and replays each on a core of the
// matching geometry (time-randomised L1s for the elided traces,
// time-deterministic ones for the exact trace) against the interpreter on
// an identically seeded core: the retired count, the clock, the L1
// statistics and the sequence of issued transactions must agree.
// Programs the decoder rejects or that run past fuzzMaxInstr are skipped.
// The seed corpus under testdata/fuzz holds a HALT, a program that runs
// off its end, a strided read-modify-write loop ending in a division by
// zero, a pointer chase and a two-array sweep, the last three over a
// pointer ring as their data.
func FuzzReplayMatchesInterpreter(f *testing.F) {
	f.Fuzz(func(t *testing.T, img, data []byte) {
		prog, err := isa.Decode("fuzz", img)
		if err != nil || len(data) > 1<<12 {
			return
		}
		prog.Data = data
		if prog.Validate() != nil {
			return
		}
		for _, v := range []struct {
			lineBytes int
			policy    cache.Policy
		}{{16, cache.TimeRandomised}, {64, cache.TimeRandomised}, {0, cache.TimeDeterministic}} {
			tr, err := RecordTraceFor(prog, fuzzMaxInstr, v.lineBytes)
			if err != nil {
				return
			}
			line := max(v.lineBytes, 16)
			core := func() *Core {
				m, err := isa.NewMachine(prog)
				if err != nil {
					t.Fatal(err)
				}
				src := rng.New(3)
				cfg := cache.Config{Name: "L1", SizeBytes: 1024, Ways: 2, LineBytes: line, Policy: v.policy}
				return New(0, m, cache.New(cfg, src.Fork()), cache.New(cfg, src.Fork()))
			}
			want := runPerfect(core())
			c := core()
			c.SetReplay(tr)
			c.EnableReplayBurst(fuzzMaxInstr)
			if got := runPerfect(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte trace (%d bytes for %d instructions): replay diverged\n got %+v\nwant %+v",
					v.lineBytes, tr.Bytes(), tr.Len(), got, want)
			}
		}
	})
}
