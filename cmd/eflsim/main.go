// Command eflsim runs benchmark kernels (or an assembled program) on the
// simulated platform and prints per-core timing and cache statistics.
//
// Usage:
//
//	eflsim -bench CN                          # one kernel, isolated, shared LLC
//	eflsim -bench CN,II,RS,A2 -mid 500        # 4-task workload under EFL
//	eflsim -bench CN,II -partition 4,4        # way-partitioned (CP) baseline
//	eflsim -bench CN -mid 500 -analysis       # analysis mode (CRG co-runners)
//	eflsim -asm prog.s -runs 10               # run an assembler file 10 times
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"efl/internal/bench"
	"efl/internal/isa"
	"efl/internal/sim"
	"efl/internal/trace"
)

func main() {
	var (
		benches   = flag.String("bench", "", "comma-separated kernel codes (paper: ID,MA,CN,AI,CA,PU,RS,II,PN,A2; extended: FF,IF,BF,BM,TL,TS)")
		asmFile   = flag.String("asm", "", "assembler file to run on core 0")
		mid       = flag.Int64("mid", 0, "EFL minimum inter-eviction delay (0 = off)")
		partition = flag.String("partition", "", "comma-separated ways per core (CP baseline)")
		analysis  = flag.Bool("analysis", false, "analysis mode: program on core 0, CRGs elsewhere")
		runs      = flag.Int("runs", 1, "number of runs (fresh cache randomisation each)")
		seed      = flag.Uint64("seed", 1, "random seed")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the last run to this file")
		traceText = flag.Int64("trace-text", 0, "print the first N cycles of the last run as a text timeline")
	)
	flag.Parse()

	cfg := sim.DefaultConfig()
	if *mid > 0 {
		cfg = cfg.WithEFL(*mid)
	}
	if *partition != "" {
		var ways []int
		for _, f := range strings.Split(*partition, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fatal("bad -partition %q: %v", *partition, err)
			}
			ways = append(ways, w)
		}
		for len(ways) < cfg.Cores {
			ways = append(ways, 0)
		}
		cfg = cfg.WithPartition(ways)
	}
	if *analysis {
		cfg = cfg.WithAnalysis(0)
	}

	progs := make([]*isa.Program, cfg.Cores)
	var names []string
	switch {
	case *asmFile != "":
		src, err := os.ReadFile(*asmFile)
		if err != nil {
			fatal("%v", err)
		}
		p, err := isa.Assemble(*asmFile, string(src))
		if err != nil {
			fatal("%v", err)
		}
		progs[0] = p
		names = []string{p.Name}
	case *benches != "":
		for i, code := range strings.Split(*benches, ",") {
			if i >= cfg.Cores {
				fatal("more benchmarks than cores (%d)", cfg.Cores)
			}
			s, err := bench.ByCode(strings.TrimSpace(code))
			if err != nil {
				fatal("%v", err)
			}
			progs[i] = s.Build()
			names = append(names, s.Code)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	m, err := sim.New(cfg, progs, *seed)
	if err != nil {
		fatal("%v", err)
	}
	var buf *trace.Buffer
	if *traceOut != "" || *traceText > 0 {
		buf = trace.NewBuffer(1 << 20)
		m.SetTracer(buf)
	}
	for r := 0; r < *runs; r++ {
		if buf != nil {
			buf.Reset() // keep only the last run's events
		}
		res, err := m.Run()
		if err != nil {
			fatal("run %d: %v", r, err)
		}
		fmt.Printf("run %d (mode %v", r, cfg.Mode)
		if cfg.MID > 0 {
			fmt.Printf(", EFL MID=%d", cfg.MID)
		}
		if cfg.PartitionWays != nil {
			fmt.Printf(", CP %v", cfg.PartitionWays)
		}
		fmt.Println(")")
		for i, cr := range res.PerCore {
			if !cr.Active {
				continue
			}
			name := "?"
			if i < len(names) {
				name = names[i]
			}
			fmt.Printf("  core%d %-8s cycles=%10d instrs=%9d IPC=%.4f  IL1miss=%.2f%% DL1miss=%.2f%%  eflStall=%d\n",
				i, name, cr.Cycles, cr.Instrs, cr.IPC,
				100*cr.IL1.MissRatio(), 100*cr.DL1.MissRatio(), cr.EFL.StallCycles)
		}
		// Per-level summary, generic over the configured hierarchy (level 0
		// aggregates the private L1 pairs; shared levels report their single
		// instance; the last level is the LLC).
		for _, lv := range res.PerLevel {
			scope := "private"
			if lv.Shared {
				scope = "shared"
			}
			fmt.Printf("  %-4s (%s): accesses=%d misses=%d (%.2f%%) evictions=%d forced=%d\n",
				lv.Name, scope, lv.Stats.Accesses, lv.Stats.Misses,
				100*lv.Stats.MissRatio(), lv.Stats.Evictions, lv.Stats.ForcedEvict)
		}
		llc := res.PerLevel[len(res.PerLevel)-1].Stats
		fmt.Printf("  LLC: accesses=%d misses=%d (%.2f%%) evictions=%d forced=%d | bus wait=%d | mem reads=%d writes=%d\n",
			llc.Accesses, llc.Misses, 100*llc.MissRatio(),
			llc.Evictions, llc.ForcedEvict, res.Bus.WaitCycles,
			res.Mem.Reads, res.Mem.Writes)
	}
	if buf != nil {
		if *traceText > 0 {
			fmt.Print(buf.Render(0, *traceText))
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, buf.ChromeJSON(), 0o644); err != nil {
				fatal("%v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (open in chrome://tracing)\n",
				len(buf.Events()), *traceOut)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eflsim: "+format+"\n", args...)
	os.Exit(1)
}
