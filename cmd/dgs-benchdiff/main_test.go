package main

import (
	"strings"
	"testing"

	"dgs/internal/bench"
)

func baselineReport() *bench.Report {
	return &bench.Report{
		GoVersion:  "go1.22",
		GoMaxProcs: 1,
		SIMDKernel: true,
		Results: []bench.Result{
			{Name: "gemm_128", NsPerOp: 83374, AllocsPerOp: 0},
			{Name: "ps_push", NsPerOp: 295709, AllocsPerOp: 0},
			{Name: "topk_1m", NsPerOp: 1.2e6, AllocsPerOp: 0},
		},
		Speedups: map[string]float64{
			"gemm_128":     15.8,
			"gemm_ta_conv": 9.8,
		},
	}
}

// currentLike clones the baseline as a fresh same-machine measurement.
func currentLike() *bench.Report {
	cur := baselineReport()
	cur.Speedups = map[string]float64{"gemm_128": 15.8, "gemm_ta_conv": 9.8}
	return cur
}

func wantProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Fatalf("no problem mentions %q in %v", substr, problems)
}

func TestDiffPassesOnEqualReports(t *testing.T) {
	if p := diff(baselineReport(), currentLike(), rules{maxSlowdown: 0.25}); len(p) != 0 {
		t.Fatalf("expected clean diff, got %v", p)
	}
}

func TestDiffToleratesSmallSlowdown(t *testing.T) {
	cur := currentLike()
	cur.Speedups["gemm_128"] = 15.8 * 0.80 // within the 25% budget
	if p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25}); len(p) != 0 {
		t.Fatalf("20%% slowdown should pass with 25%% tolerance, got %v", p)
	}
}

func TestDiffFailsOnKernelSlowdown(t *testing.T) {
	cur := currentLike()
	cur.Speedups["gemm_128"] = 15.8 * 0.5
	p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25})
	wantProblem(t, p, "gemm_128")
	wantProblem(t, p, "below floor")
}

func TestDiffFailsOnNewAllocations(t *testing.T) {
	cur := currentLike()
	cur.Results[1].AllocsPerOp = 3 // ps_push grew allocations
	p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25})
	wantProblem(t, p, "ps_push")
	wantProblem(t, p, "allocation-free")
}

func TestDiffFailsOnMissingBenchmark(t *testing.T) {
	cur := currentLike()
	cur.Results = cur.Results[:1]
	p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25})
	wantProblem(t, p, `"ps_push" missing`)
	wantProblem(t, p, `"topk_1m" missing`)
}

func TestDiffFailsOnMissingSpeedupKey(t *testing.T) {
	cur := currentLike()
	delete(cur.Speedups, "gemm_ta_conv")
	p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25})
	wantProblem(t, p, `speedup "gemm_ta_conv" missing`)
}

func serverReport(speedupAt8 float64) *bench.ServerReport {
	return &bench.ServerReport{
		GoVersion:       "go1.22",
		GoMaxProcs:      1,
		BlockSize:       1024,
		PushesPerWorker: 256,
		Results: []bench.ServerPoint{
			{Workload: "embed", Workers: 8, Shards: 1,
				PushesPerSec: 1000 * speedupAt8, BaselinePushesPerSec: 1000,
				Speedup: speedupAt8, ScanSkipRatio: 0.9, BlockSize: 1024},
			{Workload: "cnn", Workers: 8, Shards: 1,
				PushesPerSec: 5000, BaselinePushesPerSec: 3000, Speedup: 1.6,
				ScanSkipRatio: 0.7, BlockSize: 4},
		},
		SpeedupAt8:       speedupAt8,
		CNNScanSkipRatio: 0.7,
	}
}

func TestDiffServerPasses(t *testing.T) {
	if p := diffServer(serverReport(4.0), serverReport(2.3), 2.0, 0.5); len(p) != 0 {
		t.Fatalf("expected clean server diff, got %v", p)
	}
}

func TestDiffServerFailsBelowFloor(t *testing.T) {
	p := diffServer(serverReport(4.0), serverReport(1.7), 2.0, 0.5)
	wantProblem(t, p, "current")
	wantProblem(t, p, "below floor")
}

func TestDiffServerFailsOnStaleBaseline(t *testing.T) {
	// The committed baseline must itself satisfy the gate, so a stale
	// tracked report fails loudly rather than masking a regression.
	p := diffServer(serverReport(1.2), serverReport(3.0), 2.0, 0.5)
	wantProblem(t, p, "baseline")
	wantProblem(t, p, "below floor")
}

func TestDiffServerFailsOnMissingRow(t *testing.T) {
	cur := serverReport(3.0)
	cur.Results = cur.Results[1:] // drop the embed 8-worker row
	p := diffServer(serverReport(4.0), cur, 2.0, 0.5)
	wantProblem(t, p, "embed 8-worker row missing")
}

func TestDiffServerFailsOnBogusThroughput(t *testing.T) {
	cur := serverReport(3.0)
	cur.Results[0].BaselinePushesPerSec = 0
	p := diffServer(serverReport(4.0), cur, 2.0, 0.5)
	wantProblem(t, p, "non-positive throughput")
}

func TestDiffServerFailsBelowCNNSkipFloor(t *testing.T) {
	cur := serverReport(3.0)
	cur.CNNScanSkipRatio = 0.02 // the pre-auto-shift regime
	p := diffServer(serverReport(4.0), cur, 2.0, 0.5)
	wantProblem(t, p, "cnn scan/skip ratio 0.020 below floor 0.50")
}

func TestDiffSIMDMismatch(t *testing.T) {
	cur := currentLike()
	cur.SIMDKernel = false
	// speedups on the generic path would look like a regression; the gate
	// must report the mismatch, not a bogus slowdown.
	cur.Speedups["gemm_128"] = 1.0

	p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25})
	wantProblem(t, p, "simd_kernel mismatch")
	for _, prob := range p {
		if strings.Contains(prob, "below floor") {
			t.Fatalf("speedup comparison should be skipped on mismatch: %v", p)
		}
	}

	// With the escape hatch, only allocation/completeness checks apply.
	if p := diff(baselineReport(), cur, rules{maxSlowdown: 0.25, allowSIMDMismatch: true}); len(p) != 0 {
		t.Fatalf("allow-simd-mismatch should pass, got %v", p)
	}
}
