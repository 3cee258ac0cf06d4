package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"efl/internal/bench"
	"efl/internal/cache"
	"efl/internal/isa"
	"efl/internal/rng"
	"efl/internal/trace"
	"efl/internal/workload"
)

// replayDiffConfigs are the platforms TestPooledReplayMatchesInterpreter
// draws from: EFL at three MIDs, CP, the 3-level hierarchy, write-through
// DL1s with and without LLC write-allocate, the TD policy (exact traces),
// and 32- and 64-byte lines (traces packed for each line size).
func replayDiffConfigs() map[string]Config {
	wt := DefaultConfig().WithEFL(500)
	wt.DL1WriteThrough = true
	wta := wt
	wta.WTAllocate = true
	td := DefaultConfig()
	td.Policy = cache.TimeDeterministic
	line32 := DefaultConfig().WithEFL(500)
	line32.LineBytes = 32
	line64 := DefaultConfig().WithPartition([]int{2, 2, 2, 2})
	line64.LineBytes = 64
	return map[string]Config{
		"efl250":          DefaultConfig().WithEFL(250),
		"efl500":          DefaultConfig().WithEFL(500),
		"efl1000":         DefaultConfig().WithEFL(1000),
		"cp2222":          DefaultConfig().WithPartition([]int{2, 2, 2, 2}),
		"3level":          threeLevelConfig(),
		"writethrough":    wt,
		"writethrough-wa": wta,
		"td":              td,
		"line32":          line32,
		"line64-cp":       line64,
	}
}

// replayDiffPrograms returns builders for the 16 kernels and three
// synthetic-trace programs. Every call builds a new program value, so
// pooled traces are found by image, never by pointer.
func replayDiffPrograms(t *testing.T) []func() *isa.Program {
	t.Helper()
	var builders []func() *isa.Program
	for _, spec := range bench.AllWithExtended() {
		builders = append(builders, spec.Build)
	}
	for i, g := range []workload.GenSpec{
		{Name: "hot", Seed: 3, Records: 1500, FootprintBytes: 16 << 10, Locality: 0.9, StoreFrac: 0.3, MeanGap: 3},
		{Name: "stream", Seed: 4, Records: 1500, FootprintBytes: 64 << 10, StrideBytes: 16, StoreFrac: 0.2, MeanGap: 1},
		{Name: "mixed", Seed: 5, Records: 1500, FootprintBytes: 32 << 10, Locality: 0.5, StoreFrac: 0.5, MeanGap: 6},
	} {
		data, err := g.Generate()
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("gen%d", i)
		if _, err := workload.Replay(name, data); err != nil {
			t.Fatal(err)
		}
		builders = append(builders, func() *isa.Program {
			p, err := workload.Replay(name, data)
			if err != nil {
				panic(err)
			}
			return p
		})
	}
	return builders
}

// TestPooledReplayMatchesInterpreter is the seeded differential test of
// all-core replay and the stall streams, with the lockstep interpreter as
// the oracle. Each round draws a platform of replayDiffConfigs (each
// twice, once under -race), a mix of four programs (the kernels and
// synthetic-trace programs, any of them possibly idle) and a seed; one
// pool, reused across rounds, runs the mix through RunInto with every
// core replaying and streaming, and a fresh New interprets it through
// the reference loop, which steps every core in lockstep with the
// platform. The two runs must agree in every field of Result, in
// CoherenceStats and in the full traced event list.
func TestPooledReplayMatchesInterpreter(t *testing.T) {
	configs := replayDiffConfigs()
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	builders := replayDiffPrograms(t)
	src := rng.New(26)
	pool := NewPool()
	bufs := [2]*trace.Buffer{trace.NewBuffer(1 << 19), trace.NewBuffer(1 << 19)}
	rounds := 2 * len(names)
	if raceEnabled {
		rounds = len(names)
	}
	for round := 0; round < rounds; round++ {
		name := names[round%len(names)]
		cfg := configs[name]
		picks := make([]int, cfg.Cores)
		for i := range picks {
			picks[i] = src.Intn(len(builders))
		}
		idle := -1
		if src.Intn(3) == 0 {
			idle = src.Intn(cfg.Cores)
		}
		build := func() []*isa.Program {
			progs := make([]*isa.Program, cfg.Cores)
			for i, k := range picks {
				if i != idle {
					progs[i] = builders[k]()
				}
			}
			return progs
		}
		seed := src.Uint64()
		pooled, err := pool.Get(cfg, build(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctl := range pooled.cores {
			if ctl.core != nil && !ctl.core.Replaying() {
				t.Fatalf("round %d (%s): core %d interprets", round, name, ctl.id)
			}
		}
		fresh, err := New(cfg, build(), seed)
		if err != nil {
			t.Fatal(err)
		}
		var got, want loopOutcome
		loops := [2]func(*Multicore, *Result) error{(*Multicore).RunInto, referenceRun}
		for i, m := range []*Multicore{pooled, fresh} {
			m.SetTracer(bufs[i])
			o := loopRun(m, bufs[i], loops[i])
			m.SetTracer(nil)
			if o.Dropped > 0 {
				t.Fatalf("round %d (%s): trace buffer dropped %d events", round, name, o.Dropped)
			}
			if i == 0 {
				got = o
			} else {
				want = o
			}
		}
		if want.Err != "" {
			t.Fatalf("round %d (%s): interpreted run failed: %s", round, name, want.Err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%s, programs %v, idle %d, seed %d): replayed run diverged from the interpreter: %s",
				round, name, picks, idle, seed, outcomeDiff(got, want))
		}
	}
}
