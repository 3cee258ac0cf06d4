// Command mbpta applies Measurement-Based Probabilistic Timing Analysis to
// execution times and prints pWCET estimates.
//
// Input is either a file of execution times (one number per line, in
// observation order) or a benchmark kernel measured on the simulated
// platform:
//
//	mbpta -times observations.txt
//	mbpta -bench A2 -mid 500 -runs 300
//
// Output: the i.i.d. test results, the fitted Gumbel tail, and pWCET
// estimates at 1e-12..1e-19 per run.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"efl/internal/bench"
	"efl/internal/mbpta"
	"efl/internal/sim"
)

func main() {
	var (
		timesFile = flag.String("times", "", "file with one execution time per line")
		benchCode = flag.String("bench", "", "kernel code to measure on the simulator")
		mid       = flag.Int64("mid", 500, "EFL MID for -bench measurement")
		runs      = flag.Int("runs", 300, "measurement runs for -bench")
		seed      = flag.Uint64("seed", 1, "random seed for -bench")
		skipIID   = flag.Bool("skip-iid", false, "skip the i.i.d. gate")
		pot       = flag.Bool("pot", false, "also run the peaks-over-threshold route and cross-check")
	)
	flag.Parse()

	var times []float64
	switch {
	case *timesFile != "":
		f, err := os.Open(*timesFile)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			v, err := strconv.ParseFloat(line, 64)
			if err != nil {
				fatal("%s:%d: %v", *timesFile, ln, err)
			}
			times = append(times, v)
		}
		if err := sc.Err(); err != nil {
			fatal("%v", err)
		}
	case *benchCode != "":
		s, err := bench.ByCode(*benchCode)
		if err != nil {
			fatal("%v", err)
		}
		cfg := sim.DefaultConfig().WithEFL(*mid)
		times, err = sim.NewPool().CollectAnalysisTimes(context.Background(), cfg, s.Build(), *runs, *seed)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("collected %d analysis-mode runs of %s (EFL MID=%d)\n", len(times), s.Code, *mid)
	default:
		flag.Usage()
		os.Exit(2)
	}

	res, err := mbpta.Analyze(times, mbpta.Options{SkipIIDTests: *skipIID})
	if res != nil && res.IIDChecked {
		verdict := "pass"
		if !res.IID.Passed {
			verdict = "FAIL"
		}
		fmt.Printf("i.i.d.: Wald-Wolfowitz |Z|=%.3f (<1.96), KS p=%.4f (>0.05) -> %s\n",
			res.IID.WW.AbsZ, res.IID.KS.PValue, verdict)
	}
	if err != nil {
		fatal("%v", err)
	}
	if res.Degenerate {
		fmt.Printf("constant execution time %v; pWCET at any probability = %v\n", res.MaxSeen, res.MaxSeen)
		return
	}
	fmt.Printf("runs=%d block=%d blocks=%d fit=%v (fit KS p=%.4f)\n",
		res.Runs, res.BlockSize, res.NumBlocks, res.Fit, res.FitKS.PValue)
	fmt.Printf("observed max = %.0f\n", res.MaxSeen)
	for _, p := range []float64{1e-12, 1e-15, 1e-17, 1e-19} {
		fmt.Printf("pWCET @ %.0e per run = %.0f\n", p, res.PWCET(p))
	}
	if *pot {
		bm, potEst, dis, err := mbpta.CrossCheck(times, 1e-15)
		if err != nil {
			fatal("POT cross-check: %v", err)
		}
		fmt.Printf("EVT cross-check @ 1e-15: block-maxima=%.0f  POT/GPD=%.0f  disagreement=%.1f%%\n",
			bm, potEst, 100*dis)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mbpta: "+format+"\n", args...)
	os.Exit(1)
}
