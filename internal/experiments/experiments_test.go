package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"efl/internal/sim"
)

// smallOpt keeps test campaigns fast: few runs, few workloads. The full
// paper-scale campaign is exercised by cmd/experiments and the root
// benchmarks.
func smallOpt() Options {
	return Options{
		Seed:       7,
		Runs:       60,
		Workloads:  8,
		DeployRuns: 1,
		MIDs:       []int64{250, 1000},
		CPWays:     []int{1, 2, 4},
	}
}

func TestCampaignSeedStable(t *testing.T) {
	a := campaignSeed(1, "ID/EFL250")
	b := campaignSeed(1, "ID/EFL250")
	c := campaignSeed(1, "ID/EFL500")
	d := campaignSeed(2, "ID/EFL250")
	if a != b {
		t.Fatal("seed not deterministic")
	}
	if a == c || a == d {
		t.Fatal("seeds collide across campaigns")
	}
	if campaignSeed(0, "") == 0 {
		t.Fatal("zero seed produced")
	}
}

func TestAnalysisPWCETBasics(t *testing.T) {
	spec, err := specByCode("CA")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := pooledPWCET(context.Background(), sim.NewPool(), eflConfig(500), spec.Build(),
		sim.EstimateSpec{Runs: 60, Seed: 3, Prob: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if res.PWCET < res.Max {
		t.Fatalf("pWCET %v below observed max %v", res.PWCET, res.Max)
	}
	if res.Mean <= 0 || res.Mean > res.Max {
		t.Fatalf("mean %v implausible (max %v)", res.Mean, res.Max)
	}
	if res.Runs != 60 {
		t.Fatalf("runs = %d", res.Runs)
	}
}

func TestFigure3Small(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	res, err := Figure3(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for i, row := range res.Rows {
		// Normalised to CP2: the CP2 column must be exactly 1.
		if row.CP[2] != 1 {
			t.Fatalf("row %s: CP2 normalised to %v", row.Code, row.CP[2])
		}
		// CP1 must never beat CP2 meaningfully (less cache cannot help).
		if row.CP[1] < 0.97 {
			t.Errorf("row %s: CP1 (%v) beats CP2", row.Code, row.CP[1])
		}
		// Raw pWCETs must be positive.
		raw := res.RawRows[i]
		for _, v := range raw.CP {
			if v <= 0 {
				t.Fatalf("row %s: non-positive pWCET", row.Code)
			}
		}
	}
	// Render must include every benchmark code.
	text := res.Render()
	for _, row := range res.Rows {
		if !strings.Contains(text, row.Code) {
			t.Errorf("render missing %s:\n%s", row.Code, text)
		}
	}
	if !strings.Contains(res.CSV(), "bench,EFL250") {
		t.Error("CSV header wrong")
	}
}

// TestFigure3PaperShape pins the qualitative claims of §4.2 on a reduced
// campaign: (1) for the cache-space-insensitive CN, CP1 is clearly worse
// than CP2; (2) the streaming MA is hurt by EFL and prefers low MIDs;
// (3) EFL at its best MID beats CP2 for the sensitive PN.
func TestFigure3PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	res, err := Figure3(opt)
	if err != nil {
		t.Fatal(err)
	}
	byCode := map[string]Fig3Row{}
	for _, row := range res.Rows {
		byCode[row.Code] = row
	}
	if cn := byCode["CN"]; cn.CP[1] < 1.3 {
		t.Errorf("CN: CP1 = %v, expected clear degradation vs CP2", cn.CP[1])
	}
	ma := byCode["MA"]
	if ma.EFL[250] >= ma.EFL[1000] {
		t.Errorf("MA: EFL250 (%v) should beat EFL1000 (%v) — low MID mitigates streaming stalls",
			ma.EFL[250], ma.EFL[1000])
	}
	if ma.EFL[1000] < 1.5 {
		t.Errorf("MA: EFL1000 = %v, expected clearly worse than CP2", ma.EFL[1000])
	}
	pn := byCode["PN"]
	if _, best := pn.BestEFL(); best >= 1 {
		t.Errorf("PN: best EFL = %v, expected to beat CP2", best)
	}
}

func TestIIDTableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	opt.Runs = 120
	res, err := IIDTable(opt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	passed := 0
	for _, row := range res.Rows {
		if row.Passed {
			passed++
		}
	}
	// At alpha=0.05 an occasional statistical failure is expected; the
	// paper's claim is that the platform is MBPTA-compliant, i.e. the
	// overwhelming majority passes.
	if passed < 8 {
		t.Fatalf("only %d/10 benchmarks passed the i.i.d. gate:\n%s", passed, res.Render())
	}
	if !strings.Contains(res.Render(), "WW") {
		t.Error("render missing test names")
	}
}

func TestFigure4Small(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	res, err := Figure4(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorkload) != opt.Workloads {
		t.Fatalf("%d workloads", len(res.PerWorkload))
	}
	for _, fw := range res.PerWorkload {
		if len(fw.Workload.Codes) != 4 {
			t.Fatalf("workload %v", fw.Workload)
		}
		sum := 0
		for _, w := range fw.BestCPSplit {
			if w < 1 {
				t.Fatalf("split %v", fw.BestCPSplit)
			}
			sum += w
		}
		if sum > 8 {
			t.Fatalf("split %v oversubscribes", fw.BestCPSplit)
		}
		if fw.WgIPCCP <= 0 || fw.WgIPCEFL <= 0 || fw.WaIPCCP <= 0 || fw.WaIPCEFL <= 0 {
			t.Fatalf("non-positive IPC: %+v", fw)
		}
	}
	// This reproduction's Figure 4 shape (see EXPERIMENTS.md): EFL wins
	// average performance (waIPC) decisively — the shared LLC plus
	// bounded interference beats static partitions at run time — while
	// guaranteed performance (wgIPC) sits near parity, because the
	// analysis-time CRG worst case taxes our synthetic kernels harder
	// than the paper's EEMBC originals. Assert both.
	if res.Average.EFLWins*2 < res.Average.Workloads {
		t.Errorf("EFL wins only %d/%d workloads on waIPC:\n%s",
			res.Average.EFLWins, res.Average.Workloads, res.Render())
	}
	if res.Average.MeanGain < 0.02 {
		t.Errorf("waIPC mean gain %+.1f%%, want clearly positive:\n%s",
			100*res.Average.MeanGain, res.Render())
	}
	if res.Guaranteed.MeanGain < -0.12 {
		t.Errorf("wgIPC mean gain %+.1f%% below the parity band:\n%s",
			100*res.Guaranteed.MeanGain, res.Render())
	}
	// Curves are sorted descending.
	for i := 1; i < len(res.GuaranteedCurve); i++ {
		if res.GuaranteedCurve[i] > res.GuaranteedCurve[i-1] {
			t.Fatal("guaranteed curve not sorted")
		}
	}
	if !strings.Contains(res.Render(), "wgIPC") {
		t.Error("render missing wgIPC")
	}
	if !strings.Contains(res.CurveCSV(), "rank,") {
		t.Error("curve CSV missing header")
	}
}

func TestAblationEq1(t *testing.T) {
	points, err := AblationEq1(5, 3000, []int{1, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		// The exact eviction model must match the simulated cache.
		if math.Abs(p.Exact-p.Measured) > 0.02 {
			t.Errorf("k=%d: exact %v vs simulated %v", p.K, p.Exact, p.Measured)
		}
		// Equation 1 as printed must be conservative (>= measured).
		if p.Equation1 < p.Measured-0.02 {
			t.Errorf("k=%d: Equation 1 (%v) below simulated (%v) — not conservative", p.K, p.Equation1, p.Measured)
		}
	}
	if _, err := AblationEq1(5, 10, []int{1}); err == nil {
		t.Error("tiny trial count accepted")
	}
	if !strings.Contains(RenderEq1(points), "equation1") {
		t.Error("render broken")
	}
}

func TestAblationLRU(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	opt.Runs = 30
	rows, err := AblationLRU(opt, []string{"CA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	// TD platform: fixed layout, fixed timing -> a single distinct time.
	if r.TDDistinctTimes != 1 {
		t.Errorf("TD platform produced %d distinct times, want 1", r.TDDistinctTimes)
	}
	// TR platform: per-run RIIs -> many distinct times.
	if r.TRDistinctTimes < 5 {
		t.Errorf("TR platform produced only %d distinct times", r.TRDistinctTimes)
	}
	if !strings.Contains(RenderLRU(rows), "CA") {
		t.Error("render broken")
	}
}

func TestAblationFixedMID(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	opt.Runs = 100
	rows, err := AblationFixedMID(opt, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	randPass := 0
	for _, r := range rows {
		if r.RandomPassed {
			randPass++
		}
	}
	if randPass < 8 {
		t.Errorf("randomised MID passed i.i.d. for only %d/10 benchmarks", randPass)
	}
	if !strings.Contains(RenderFixedMID(rows, 500), "random") {
		t.Error("render broken")
	}
}

func TestRenderSetup(t *testing.T) {
	text, err := RenderSetup(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"64 KB", "8-way", "idctrn01", "UBD"} {
		if !strings.Contains(text, want) {
			t.Errorf("setup table missing %q", want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Runs != 300 || o.Workloads != 1024 || o.Prob != 1e-15 {
		t.Fatalf("defaults = %+v", o)
	}
	if len(o.MIDs) != 3 || len(o.CPWays) != 3 {
		t.Fatalf("defaults = %+v", o)
	}
}

func TestAblationWriteThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	opt.Runs = 25
	// CA is store-heavy (read-modify-write every iteration) — the case
	// footnote 5 warns about.
	rows, err := AblationWriteThrough(opt, 500, []string{"CA"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.WriteBack <= 0 || r.WTNoAlloc <= 0 || r.WTAllocate <= 0 {
		t.Fatalf("row = %+v", r)
	}
	// Footnote 5's claims: write-through makes LLC traffic more frequent,
	// and the allocating variant makes EFL stalls frequent. So WB must be
	// the fastest and WT+allocate must carry the largest stall share.
	if r.WriteBack >= r.WTAllocate {
		t.Errorf("write-back (%v) not faster than WT+allocate (%v)", r.WriteBack, r.WTAllocate)
	}
	if r.StallAlloc <= r.StallWB {
		t.Errorf("WT+allocate stalls (%v) not above write-back stalls (%v)", r.StallAlloc, r.StallWB)
	}
	if !strings.Contains(RenderWriteThrough(rows, 500), "CA") {
		t.Error("render broken")
	}
}

func TestMIDSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	opt.Runs = 60
	res, err := MIDSweep(opt, []int64{250, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.PWCET) != 2 || row.BestMID == 0 {
			t.Fatalf("row %s = %+v", row.Code, row)
		}
		if row.PWCET[row.BestMID] > row.PWCET[otherMID(row.BestMID)] {
			t.Fatalf("row %s: best MID not minimal", row.Code)
		}
	}
	if !strings.Contains(res.Render(), "best MID") || !strings.Contains(res.CSV(), "MID250") {
		t.Error("render/CSV broken")
	}
}

func otherMID(m int64) int64 {
	if m == 250 {
		return 1000
	}
	return 250
}

func TestConvergenceStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	opt := smallOpt()
	res, err := ConvergenceStudy(opt, 500, []int{60, 120, 240}, []string{"CN"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	row := res.Rows[0]
	if len(row.Estimates) != 3 {
		t.Fatalf("estimates = %v", row.Estimates)
	}
	// Estimates must be positive and within a sane band of each other.
	base := row.Estimates[240]
	for n, v := range row.Estimates {
		if v <= 0 || v > base*2 || v < base/2 {
			t.Fatalf("estimate at %d runs = %v (base %v)", n, v, base)
		}
	}
	if row.CollectorRuns < 100 || row.CollectorRuns > 1000 {
		t.Fatalf("stream stopped at %d runs", row.CollectorRuns)
	}
	if row.FinalEstimate <= 0 {
		t.Fatal("no final estimate")
	}
	// The reported stop is the production stopping rule's: the campaign
	// -converge runs, with the paper's 1,000-run ceiling, under the
	// study's campaign seed.
	spec, err := specByCode("CN")
	if err != nil {
		t.Fatal(err)
	}
	copt := opt.withDefaults()
	conv, times, err := pooledPWCET(context.Background(), copt.newPool(), eflConfig(500), spec.Build(),
		sim.EstimateSpec{Runs: 1000, Seed: campaignSeed(copt.Seed, "CN/convergence"), Converge: true, Prob: copt.Prob})
	if err != nil {
		t.Fatal(err)
	}
	if row.CollectorRuns != len(times) || row.FinalEstimate != conv.PWCET {
		t.Fatalf("study stopped at %d runs (pWCET %v), converged campaign at %d (pWCET %v)",
			row.CollectorRuns, row.FinalEstimate, len(times), conv.PWCET)
	}
	if !strings.Contains(res.Render(), "stream stops") {
		t.Error("render broken")
	}
}
