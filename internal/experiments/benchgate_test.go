package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateReport(results ...BenchResult) *BenchReport {
	return &BenchReport{Kernel: "CA", Results: results}
}

func TestCompareBaselineFlagsRegression(t *testing.T) {
	base := gateReport(BenchResult{Name: "analysis_run", RunsPerSec: 300})
	cur := gateReport(BenchResult{Name: "analysis_run", RunsPerSec: 240})
	err := CompareBaseline(base, cur, 0.10)
	if err == nil {
		t.Fatal("20% drop at 10% tolerance should fail the gate")
	}
	for _, want := range []string{"analysis_run", "300", "240", "regressed vs committed baseline"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("gate diff missing %q:\n%v", want, err)
		}
	}
}

func TestCompareBaselinePassesWithinTolerance(t *testing.T) {
	base := gateReport(
		BenchResult{Name: "analysis_run", RunsPerSec: 300},
		BenchResult{Name: "removed_bench", RunsPerSec: 100},
	)
	cur := gateReport(
		BenchResult{Name: "analysis_run", RunsPerSec: 275}, // -8.3%, inside 10%
		BenchResult{Name: "added_bench", RunsPerSec: 450},  // addition: ignored
	)
	if err := CompareBaseline(base, cur, 0.10); err != nil {
		t.Fatalf("gate should pass: %v", err)
	}
}

func TestCompareBaselineFlagsNewAllocs(t *testing.T) {
	base := gateReport(BenchResult{Name: "analysis_run", RunsPerSec: 450, AllocsPerOp: 0})
	cur := gateReport(BenchResult{Name: "analysis_run", RunsPerSec: 460, AllocsPerOp: 2})
	err := CompareBaseline(base, cur, 0.10)
	if err == nil {
		t.Fatal("allocs/op increase should fail the gate regardless of throughput")
	}
	if !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("gate diff should name the alloc regression:\n%v", err)
	}
}

func TestLoadBenchReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.Marshal(gateReport(BenchResult{Name: "analysis_run", RunsPerSec: 300}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Name != "analysis_run" {
		t.Fatalf("round trip mangled the report: %+v", got)
	}
	if _, err := LoadBenchReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline should error")
	}
}
