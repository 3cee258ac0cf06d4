package mbpta

import (
	"math"
	"sort"
	"strings"
	"testing"

	"efl/internal/rng"
)

// TestAnalyzeValidatesBlockSizeUpFront is the regression test for the late
// BlockSize failure: an explicit BlockSize yielding fewer than MinBlocks
// full blocks must be rejected before any statistical work, in particular
// before the i.i.d. gate. Pre-fix, Analyze ran the i.i.d. battery first,
// so this monotone (i.i.d.-failing) sample returned the i.i.d. error and
// the unusable BlockSize only surfaced on samples that passed the gate.
func TestAnalyzeValidatesBlockSizeUpFront(t *testing.T) {
	times := make([]float64, 100)
	for i := range times {
		times[i] = float64(i) // monotone: fails Wald-Wolfowitz decisively
	}
	_, err := Analyze(times, Options{BlockSize: 50})
	if err == nil {
		t.Fatal("Analyze accepted BlockSize=50 over 100 samples (2 blocks < MinBlocks=20)")
	}
	if strings.Contains(err.Error(), "i.i.d.") {
		t.Fatalf("i.i.d. gate ran before BlockSize validation: %v", err)
	}
	for _, want := range []string{"100 samples", "BlockSize 50", "2 full blocks", "MinBlocks=20", "collect >= 1000"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestAnalyzeValidatesTinySample covers the auto-picked BlockSize path:
// very small samples can never produce MinBlocks blocks of >= 2 and must
// fail with the descriptive validation error rather than deep inside
// BlockMaxima.
func TestAnalyzeValidatesTinySample(t *testing.T) {
	src := rng.New(7)
	times := gumbelSample(src, Gumbel{Mu: 100, Beta: 5}, 25)
	_, err := Analyze(times, Options{SkipIIDTests: true})
	if err == nil {
		t.Fatal("Analyze accepted 25 samples (12 blocks of 2 < MinBlocks=20)")
	}
	if !strings.Contains(err.Error(), "full blocks") {
		t.Fatalf("expected up-front validation error, got: %v", err)
	}
}

func TestNewStreamValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  StreamOptions
	}{
		{"block size 1", StreamOptions{Options: Options{BlockSize: 1}}},
		{"max below min", StreamOptions{MinRuns: 100, MaxRuns: 50}},
		{"unsatisfiable cap", StreamOptions{Options: Options{BlockSize: 50}, MaxRuns: 100}},
		{"bad prob", StreamOptions{Prob: 2}},
	}
	for _, tc := range cases {
		if _, err := NewStream(tc.opt); err == nil {
			t.Errorf("%s: NewStream accepted %+v", tc.name, tc.opt)
		}
	}
}

// TestConverged pins the stopping rule's pairwise check: relative change
// within stableTol of the previous estimate, with a zero previous estimate
// agreeing only with zero.
func TestConverged(t *testing.T) {
	if !converged(100, 101) {
		t.Fatal("1% change should converge at 2% tol")
	}
	if converged(100, 105) {
		t.Fatal("5% change should not converge at 2% tol")
	}
	if !converged(0, 0) || converged(0, 1) {
		t.Fatal("zero-prev edge cases broken")
	}
}

// TestStreamFirstEstimateAtMinRuns pins the default sizing: BlockSize 5
// completes MinBlocks=20 blocks exactly at MinRuns=100, so the first
// estimate appears at run 100 and never earlier.
func TestStreamFirstEstimateAtMinRuns(t *testing.T) {
	s, err := NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	for i := 0; i < 99; i++ {
		s.Add(src.Float64() * 100)
		if _, ok := s.Estimate(); ok {
			t.Fatalf("estimate available at run %d, before MinRuns", i+1)
		}
	}
	s.Add(src.Float64() * 100)
	if _, ok := s.Estimate(); !ok {
		t.Fatal("no estimate at run 100 with BlockSize 5, MinBlocks 20")
	}
	if s.Runs() != 100 {
		t.Fatalf("Runs() = %d", s.Runs())
	}
}

// TestStreamMinRunsFollowsSmallBudget pins the MinRuns default under a
// run budget below 100: MinRuns drops to the budget, so a small campaign
// gets its first estimate at its last run instead of being rejected.
func TestStreamMinRunsFollowsSmallBudget(t *testing.T) {
	s, err := NewStream(StreamOptions{MaxRuns: 40})
	if err != nil {
		t.Fatal(err)
	}
	if s.opt.MinRuns != 40 {
		t.Fatalf("MinRuns = %d under a 40-run budget, want 40", s.opt.MinRuns)
	}
	src := rng.New(3)
	for i := 0; i < 40; i++ {
		s.Add(src.Float64() * 100)
	}
	if _, ok := s.Estimate(); !ok {
		t.Fatal("no estimate at the end of the 40-run budget")
	}
}

// TestStreamConvergesAndAgreesWithFixedCount is the calibration check: the
// convergence-stopped streaming estimate must reproduce the fixed-count
// Analyze estimate within the experiments engine's A4 agreement threshold
// (0.25 relative disagreement), across several seeds.
func TestStreamConvergesAndAgreesWithFixedCount(t *testing.T) {
	const fixedRuns = 1000
	const a4Threshold = 0.25
	truth := Gumbel{Mu: 20000, Beta: 400}
	for seed := uint64(1); seed <= 5; seed++ {
		times := gumbelSample(rng.New(seed), truth, fixedRuns)
		s, err := NewStream(StreamOptions{MaxRuns: fixedRuns})
		if err != nil {
			t.Fatal(err)
		}
		var stopped int
		for _, x := range times {
			if s.Add(x) {
				stopped = s.Runs()
				break
			}
		}
		if !s.Converged() {
			t.Fatalf("seed %d: stream never converged within %d runs", seed, fixedRuns)
		}
		if stopped < 100 {
			t.Fatalf("seed %d: converged at %d runs, below MinRuns", seed, stopped)
		}
		streamEst, ok := s.Estimate()
		if !ok {
			t.Fatalf("seed %d: converged without an estimate", seed)
		}
		full, err := Analyze(times, Options{SkipIIDTests: true})
		if err != nil {
			t.Fatal(err)
		}
		fixedEst := full.PWCET(1e-15)
		disagree := math.Abs(streamEst-fixedEst) / math.Max(streamEst, fixedEst)
		if disagree > a4Threshold {
			t.Errorf("seed %d: streaming pWCET %.0f (at %d runs) vs fixed-count %.0f: disagreement %.3f > %.2f",
				seed, streamEst, stopped, fixedEst, disagree, a4Threshold)
		}
		t.Logf("seed %d: converged at %d/%d runs, stream %.0f vs fixed %.0f (disagreement %.3f)",
			seed, stopped, fixedRuns, streamEst, fixedEst, disagree)
	}
}

// TestStreamDegenerate: a constant sample converges immediately after
// MinRuns with the constant as its estimate (pWCET = MaxSeen).
func TestStreamDegenerate(t *testing.T) {
	s, err := NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !s.Done(); i++ {
		s.Add(42)
	}
	if !s.Converged() {
		t.Fatal("constant stream did not converge")
	}
	if est, ok := s.Estimate(); !ok || est != 42 {
		t.Fatalf("Estimate() = %v, %v; want 42", est, ok)
	}
	// BlockSize 5, MinBlocks 20, stableRefits 3: estimate at run 100,
	// stability run complete 3 blocks later.
	if s.Runs() != 115 {
		t.Fatalf("converged at %d runs, want 115", s.Runs())
	}
}

// TestStreamMaxRunsStops: a steadily growing sample, whose estimate moves
// by far more than the stopping rule's tolerance at every refit, stops at
// the MaxRuns ceiling with Done() true and Converged() false.
func TestStreamMaxRunsStops(t *testing.T) {
	s, err := NewStream(StreamOptions{MaxRuns: 150})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for !s.Done() {
		s.Add(1000 * math.Pow(1.05, float64(n)))
		n++
		if n > 150 {
			t.Fatal("stream ran past MaxRuns")
		}
	}
	if s.Converged() {
		t.Fatal("growing stream converged")
	}
	if s.Runs() != 150 {
		t.Fatalf("stopped at %d runs, want MaxRuns=150", s.Runs())
	}
}

// TestStreamEstimateMatchesBatchRefit: the streaming estimate after n runs
// equals what a from-scratch fit over the same maxima would produce — the
// incremental bookkeeping adds no drift.
func TestStreamEstimateMatchesBatchRefit(t *testing.T) {
	times := gumbelSample(rng.New(41), Gumbel{Mu: 3000, Beta: 90}, 300)
	s, err := NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range times {
		s.Add(x)
	}
	got, ok := s.Estimate()
	if !ok {
		t.Fatal("no estimate after 300 runs")
	}
	maxima, err := BlockMaxima(times, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := FitGumbelML(maxima)
	if err != nil {
		t.Fatal(err)
	}
	ref := Result{Runs: len(times), BlockSize: 5, NumBlocks: len(maxima), Fit: fit, MaxSeen: maxOf(times)}
	if want := ref.PWCET(1e-15); got != want {
		t.Fatalf("streaming estimate %v != batch refit %v", got, want)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TestStreamTimesOrdered: Times preserves arrival order (the i.i.d. gate
// in Analyze over Times depends on it).
func TestStreamTimesOrdered(t *testing.T) {
	s, err := NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{5, 3, 9, 1, 7}
	for _, x := range in {
		s.Add(x)
	}
	got := s.Times()
	if len(got) != len(in) || sort.Float64sAreSorted(got) {
		t.Fatalf("Times() = %v, want arrival order %v", got, in)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("Times()[%d] = %v, want %v", i, got[i], in[i])
		}
	}
}
