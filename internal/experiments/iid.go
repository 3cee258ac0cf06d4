package experiments

import (
	"fmt"
	"strings"
)

// IIDRow is one benchmark's MBPTA-compliance test outcome (paper §4.2):
// execution times are collected on the EFL platform in analysis mode, then
// the Wald-Wolfowitz independence test (accept when |Z| < 1.96) and the
// Kolmogorov-Smirnov identical-distribution test (accept when p > 0.05)
// are applied.
type IIDRow struct {
	Code   string
	Runs   int
	AbsZ   float64 // Wald-Wolfowitz |Z|
	KSP    float64 // Kolmogorov-Smirnov p-value
	Passed bool
}

// IIDResult reproduces the paper's MBPTA-compliance result: with EFL, all
// benchmarks' execution-time samples pass both tests at the 5% level.
type IIDResult struct {
	Opt  Options
	MID  int64
	Rows []IIDRow
}

// IIDTable runs the E1 experiment under EFL with the given MID (use 500
// for the paper's middle configuration; any MID should pass).
func IIDTable(opt Options, mid int64) (*IIDResult, error) {
	opt = opt.withDefaults()
	var cs []campaign
	for _, s := range allSpecs() {
		cs = append(cs, campaign{bench: s, config: fmt.Sprintf("EFL%d", mid), cfg: eflConfig(mid)})
	}
	results, err := runCampaigns(opt, cs)
	if err != nil {
		return nil, err
	}
	res := &IIDResult{Opt: opt, MID: mid}
	for _, s := range allSpecs() {
		r := results[fmt.Sprintf("%s/EFL%d", s.Code, mid)]
		res.Rows = append(res.Rows, IIDRow{
			Code:   s.Code,
			Runs:   r.Runs,
			AbsZ:   r.IID.WW.AbsZ,
			KSP:    r.IID.KS.PValue,
			Passed: r.IID.Passed,
		})
	}
	return res, nil
}

// Render prints the compliance table.
func (r *IIDResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "MBPTA compliance under EFL (MID=%d), alpha=0.05\n", r.MID)
	fmt.Fprintf(&sb, "%-5s %5s %12s %12s %s\n", "bench", "runs", "WW |Z|<1.96", "KS p>0.05", "verdict")
	for _, row := range r.Rows {
		verdict := "pass"
		if !row.Passed {
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "%-5s %5d %12.3f %12.4f %s\n", row.Code, row.Runs, row.AbsZ, row.KSP, verdict)
	}
	return sb.String()
}
