// Command dgs-benchdiff gates CI on performance regressions: it compares a
// freshly measured microbenchmark report (dgs-bench -microbench -json)
// against the tracked baseline (BENCH_PR2.json) and exits nonzero when the
// hot paths regressed.
//
// Raw ns/op is not comparable across machines, so the gate works on
// machine-relative quantities only:
//
//   - kernel speedups: each report measures the new kernels AND the frozen
//     pre-PR baselines in the same run, so speedup = baseline/new cancels
//     the machine out. A speedup that shrank by more than -max-slowdown
//     (default 25%) fails.
//   - allocations: the zero-allocation hot paths (conv backward, codec
//     round-trip, ps.Push, Top-k) must stay at 0 allocs/op on any machine.
//
// A SIMD-kernel mismatch between the reports (e.g. the baseline was
// measured with AVX2 and CI runs the pure-Go path) makes the speedups
// incomparable; that fails loudly unless -allow-simd-mismatch is given, in
// which case only the allocation and completeness checks apply.
//
// With -pipeline the reports are pipelined-exchange reports (dgs-bench
// -pipebench, tracked in BENCH_PR4.json) and the gate switches to that
// report's machine-relative quantities: the pipelined-vs-synchronous
// speedup is a within-run ratio (both depths measured in the same process
// against the same simulated RTT), so it must clear an absolute floor
// (-min-pipeline-speedup, default 1.3×) on any machine, and the TCP
// exchange round trip must stay allocation-free.
//
// With -server the reports are many-worker server saturation reports
// (dgs-bench -serverbench, tracked in BENCH_PR7.json). The gated quantities
// are again within-run ratios: the dirty-tracking server and the frozen
// single-mutex BaselineServer are measured in the same process on the same
// updates, and the 8-worker embed speedup must clear an absolute floor
// (-min-server-speedup, default 2×) on any machine. A further gate covers
// the block geometry: the cnn workload's scan/skip ratio — a pure counting
// ratio, not a timing — must stay above -min-cnn-skip (default 0.5) now that
// auto block-shift adapts the block size to the layer geometry.
//
// With -agg the reports are aggregation-tier reports (dgs-bench -aggbench,
// tracked in BENCH_PR9.json). The gated quantity is once more a within-run
// ratio: the 4-aggregator tier and the direct topology saturate the same
// server with the same worker fleet over real TCP in the same process, so
// the tier's pushes/sec multiple must clear an absolute floor
// (-min-agg-speedup, default 3×), with the encode-once share cache
// demonstrably active (nonzero shared-frame ratio).
//
// Usage:
//
//	dgs-bench -microbench -benchtime 100ms -json current.json
//	dgs-benchdiff -baseline BENCH_PR2.json -current current.json
//	dgs-bench -pipebench -json pipe.json
//	dgs-benchdiff -pipeline -baseline BENCH_PR4.json -current pipe.json
//	dgs-bench -serverbench -json server.json
//	dgs-benchdiff -server -baseline BENCH_PR7.json -current server.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"dgs/internal/bench"
)

type rules struct {
	// maxSlowdown is the tolerated fractional speedup loss (0.25 = a kernel
	// may keep as little as 75% of its baseline speedup).
	maxSlowdown float64
	// allowSIMDMismatch skips the speedup comparison when the two reports
	// ran different kernels.
	allowSIMDMismatch bool
}

// diff returns one human-readable problem per violated rule (empty =
// gate passes).
func diff(baseline, current *bench.Report, r rules) []string {
	var problems []string

	cur := map[string]bench.Result{}
	for _, res := range current.Results {
		cur[res.Name] = res
	}
	for _, base := range baseline.Results {
		c, ok := cur[base.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("benchmark %q missing from current report", base.Name))
			continue
		}
		if base.AllocsPerOp == 0 && c.AllocsPerOp > 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: %d allocs/op (baseline is allocation-free)", base.Name, c.AllocsPerOp))
		}
	}

	simdMismatch := baseline.SIMDKernel != current.SIMDKernel
	if simdMismatch && !r.allowSIMDMismatch {
		problems = append(problems, fmt.Sprintf(
			"simd_kernel mismatch (baseline %v, current %v): speedups are not comparable; "+
				"pass -allow-simd-mismatch to gate on allocations only",
			baseline.SIMDKernel, current.SIMDKernel))
	}
	if !simdMismatch {
		keys := make([]string, 0, len(baseline.Speedups))
		for k := range baseline.Speedups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			want := baseline.Speedups[k]
			got, ok := current.Speedups[k]
			if !ok {
				problems = append(problems, fmt.Sprintf("speedup %q missing from current report", k))
				continue
			}
			floor := want * (1 - r.maxSlowdown)
			if got < floor {
				problems = append(problems, fmt.Sprintf(
					"%s: speedup %.2fx below floor %.2fx (baseline %.2fx, tolerance %.0f%%)",
					k, got, floor, want, 100*r.maxSlowdown))
			}
		}
	}
	return problems
}

// diffPipeline gates the pipelined-exchange report. The speedup floor is
// absolute: the measurement is a within-run ratio, so "pipelining hides at
// least 30% of a round trip comparable to the serial step" is a portable
// claim. The baseline is consulted only for sanity (it must itself satisfy
// the gate, so a stale committed baseline fails loudly here, not in review).
func diffPipeline(baseline, current *bench.PipelineReport, minSpeedup float64) []string {
	var problems []string
	check := func(rep *bench.PipelineReport, name string) {
		if rep.Speedup < minSpeedup {
			problems = append(problems, fmt.Sprintf(
				"%s: pipelined speedup %.2fx below floor %.2fx (sync %.1f steps/s, pipelined %.1f steps/s at depth %d, rtt %.2f ms)",
				name, rep.Speedup, minSpeedup, rep.StepsPerSecSync, rep.StepsPerSecPipelined, rep.PipelineDepth, rep.RTTMillis))
		}
		if rep.ExchangeAllocsPerOp != 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: tcp exchange %d allocs/op (steady state must be allocation-free)", name, rep.ExchangeAllocsPerOp))
		}
	}
	check(baseline, "baseline")
	check(current, "current")
	return problems
}

// diffServer gates the many-worker server saturation report. Like the
// pipeline gate, the floor is absolute because the measurement is a
// within-run ratio (dirty-tracking server vs frozen single-mutex baseline,
// same process, same updates); the committed baseline report must itself
// satisfy the gate so a stale tracked file fails loudly here, not in review.
func diffServer(baseline, current *bench.ServerReport, minSpeedup, minCNNSkip float64) []string {
	var problems []string
	check := func(rep *bench.ServerReport, name string) {
		if rep.SpeedupAt8 < minSpeedup {
			problems = append(problems, fmt.Sprintf(
				"%s: 8-worker server speedup %.2fx below floor %.2fx (vs single-mutex baseline, embed workload)",
				name, rep.SpeedupAt8, minSpeedup))
		}
		if rep.CNNScanSkipRatio < minCNNSkip {
			problems = append(problems, fmt.Sprintf(
				"%s: cnn scan/skip ratio %.3f below floor %.2f (auto block-shift should skip most of the mixed geometry)",
				name, rep.CNNScanSkipRatio, minCNNSkip))
		}
		found := false
		for _, pt := range rep.Results {
			if pt.Workload == "embed" && pt.Workers == 8 {
				found = true
				if pt.PushesPerSec <= 0 || pt.BaselinePushesPerSec <= 0 {
					problems = append(problems, fmt.Sprintf(
						"%s: embed 8-worker row has non-positive throughput (%.1f / %.1f pushes/sec)",
						name, pt.PushesPerSec, pt.BaselinePushesPerSec))
				}
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: embed 8-worker row missing from report", name))
		}
	}
	check(baseline, "baseline")
	check(current, "current")
	return problems
}

// diffAgg gates the aggregation-tier report. The gated quantity is a
// within-run ratio — the 4-aggregator tier and the direct topology push the
// same workload over real TCP in the same process — so the floor is
// absolute and portable: the tier must multiply saturated per-shard
// throughput by at least -min-agg-speedup on any machine. The committed
// baseline must itself satisfy the gate so a stale tracked file fails
// loudly here, not in review.
func diffAgg(baseline, current *bench.AggReport, minSpeedup float64) []string {
	var problems []string
	check := func(rep *bench.AggReport, name string) {
		if rep.SpeedupAt4 < minSpeedup {
			problems = append(problems, fmt.Sprintf(
				"%s: tiered 4-agg speedup %.2fx below floor %.2fx (vs direct topology, same run)",
				name, rep.SpeedupAt4, minSpeedup))
		}
		var direct, tiered4 *bench.AggPoint
		for i := range rep.Results {
			pt := &rep.Results[i]
			switch {
			case pt.Topology == "direct":
				direct = pt
			case pt.Topology == "tiered" && pt.Aggregators == 4:
				tiered4 = pt
			}
		}
		if direct == nil || tiered4 == nil {
			problems = append(problems, fmt.Sprintf("%s: direct and/or tiered 4-agg row missing from report", name))
			return
		}
		if direct.PushesPerSec <= 0 || tiered4.PushesPerSec <= 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: non-positive throughput (direct %.1f, tiered-4 %.1f pushes/sec)",
				name, direct.PushesPerSec, tiered4.PushesPerSec))
		}
		if tiered4.SharedFrameRatio <= 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: tiered 4-agg shared-frame ratio is zero — the encode-once cache never hit, "+
					"so the measured speedup does not exercise the gated mechanism", name))
		}
		if tiered4.DedupFactor < 1 {
			problems = append(problems, fmt.Sprintf(
				"%s: tiered 4-agg dedup factor %.2f below 1 (merged nnz exceeds part nnz)",
				name, tiered4.DedupFactor))
		}
	}
	check(baseline, "baseline")
	check(current, "current")
	return problems
}

// diffWire gates the wire-compression report. The gated quantity is a
// within-run ratio (each codec's bytes/step against codec 0 on the same
// updates in the same process), so the floor is absolute and portable:
// every registered lossy codec must at least halve the embed wire in both
// directions. The committed baseline must itself satisfy the gate so a
// stale tracked file fails loudly here, not in review.
func diffWire(baseline, current *bench.WireReport, maxRatio float64) []string {
	var problems []string
	check := func(rep *bench.WireReport, name string) {
		if len(rep.QuantizedCodecs) == 0 {
			problems = append(problems, fmt.Sprintf("%s: no quantized codecs measured", name))
		}
		if rep.QuantizedEmbedMaxRatio > maxRatio {
			problems = append(problems, fmt.Sprintf(
				"%s: worst quantized embed bytes/step ratio %.3fx above ceiling %.2fx (codecs %v)",
				name, rep.QuantizedEmbedMaxRatio, maxRatio, rep.QuantizedCodecs))
		}
		for _, pt := range rep.Results {
			if pt.BytesPerStepUp <= 0 || pt.BytesPerStepDown <= 0 {
				problems = append(problems, fmt.Sprintf(
					"%s: %s/%s has non-positive bytes/step (%.1f up, %.1f down)",
					name, pt.Codec, pt.Workload, pt.BytesPerStepUp, pt.BytesPerStepDown))
			}
		}
	}
	check(baseline, "baseline")
	check(current, "current")

	// Every lossy codec the baseline covered must still be measured — a
	// codec silently dropping out of the registry shouldn't pass the gate.
	cur := map[string]bool{}
	for _, c := range current.QuantizedCodecs {
		cur[c] = true
	}
	for _, c := range baseline.QuantizedCodecs {
		if !cur[c] {
			problems = append(problems, fmt.Sprintf("quantized codec %q missing from current report", c))
		}
	}
	return problems
}

// diffCkpt gates the checkpoint report. All three quantities are within-run
// ratios, so the floors are absolute and portable; the committed baseline
// must itself satisfy them so a stale tracked file fails loudly here.
func diffCkpt(baseline, current *bench.CkptReport, minIncr, minSkip, minRetained float64) []string {
	var problems []string
	check := func(rep *bench.CkptReport, name string) {
		if rep.IncrementalSpeedup < minIncr {
			problems = append(problems, fmt.Sprintf(
				"%s: incremental capture %.2fx vs full, below floor %.2fx (dirty tracking not paying off)",
				name, rep.IncrementalSpeedup, minIncr))
		}
		if rep.SkipRatio < minSkip {
			problems = append(problems, fmt.Sprintf(
				"%s: steady-state skip ratio %.2f below floor %.2f", name, rep.SkipRatio, minSkip))
		}
		if rep.PushThroughputRatio < minRetained {
			problems = append(problems, fmt.Sprintf(
				"%s: only %.2f of push throughput retained under checkpointing, floor %.2f",
				name, rep.PushThroughputRatio, minRetained))
		}
		if rep.EncodedBytes <= 0 {
			problems = append(problems, fmt.Sprintf("%s: empty encoded checkpoint", name))
		}
	}
	check(baseline, "baseline")
	check(current, "current")
	return problems
}

func loadWire(path string) (*bench.WireReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.WireReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadCkpt(path string) (*bench.CkptReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.CkptReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// diffRead gates the read-path report. The scrape speedup is a within-run
// ratio (the same pushers and scrapers run against both snapshot paths in
// one process), so the floor is absolute and portable. The replica gates
// are correctness-shaped: the post-load drain must land bitwise on the
// upstream M (including the lossy-codec re-base), and the worst poll gap
// under load must stay under an absolute ceiling — loopback TCP, so the
// ceiling is generous and a breach means the subscription loop starved.
func diffRead(baseline, current *bench.ReadReport, minScrape, maxGapMillis float64) []string {
	var problems []string
	check := func(rep *bench.ReadReport, name string) {
		if rep.ScrapeSpeedup < minScrape {
			problems = append(problems, fmt.Sprintf(
				"%s: push throughput under scrape load %.2fx of the full-lock path, below floor %.2fx",
				name, rep.ScrapeSpeedup, minScrape))
		}
		if rep.LockedPushesPerSec <= 0 || rep.CopyPushesPerSec <= 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: non-positive scraped throughput (locked %.1f, copy-on-version %.1f pushes/sec)",
				name, rep.LockedPushesPerSec, rep.CopyPushesPerSec))
		}
		if rep.CopyScrapesPerSec <= 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: copy-on-version scraper never completed a snapshot", name))
		}
		if !rep.DrainExact {
			problems = append(problems, fmt.Sprintf(
				"%s: replica drain did not converge bitwise to the upstream M (codec %s)",
				name, rep.ReplicaCodec))
		}
		if rep.MaxPollGapMillis > maxGapMillis {
			problems = append(problems, fmt.Sprintf(
				"%s: replica poll gap peaked at %.0f ms under load, ceiling %.0f ms",
				name, rep.MaxPollGapMillis, maxGapMillis))
		}
		if rep.ReplicaAppliedCoords == 0 {
			problems = append(problems, fmt.Sprintf(
				"%s: replica applied no coordinates — the subscription never fed the mirror", name))
		}
	}
	check(baseline, "baseline")
	check(current, "current")
	return problems
}

func loadRead(path string) (*bench.ReadReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.ReadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadServer(path string) (*bench.ServerReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.ServerReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadPipeline(path string) (*bench.PipelineReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.PipelineReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func loadAgg(path string) (*bench.AggReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.AggReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func load(path string) (*bench.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_PR2.json", "tracked baseline report")
		currentPath  = flag.String("current", "", "freshly measured report (required)")
		maxSlowdown  = flag.Float64("max-slowdown", 0.25, "tolerated fractional kernel speedup loss")
		allowSIMD    = flag.Bool("allow-simd-mismatch", false, "skip speedup checks when SIMD kernels differ")
		pipeline     = flag.Bool("pipeline", false, "diff pipelined-exchange reports (dgs-bench -pipebench) instead of microbench reports")
		minPipeline  = flag.Float64("min-pipeline-speedup", 1.3, "pipelined-vs-sync steps/sec floor (with -pipeline)")
		server       = flag.Bool("server", false, "diff server saturation reports (dgs-bench -serverbench) instead of microbench reports")
		minServer    = flag.Float64("min-server-speedup", 2.0, "8-worker pushes/sec floor vs the single-mutex baseline (with -server)")
		minCNNSkip   = flag.Float64("min-cnn-skip", 0.5, "cnn workload scan/skip ratio floor under auto block-shift (with -server)")
		wire         = flag.Bool("wire", false, "diff wire-compression reports (dgs-bench -wirebench) instead of microbench reports")
		maxWireRatio = flag.Float64("max-wire-ratio", 0.5, "quantized embed bytes/step ceiling relative to codec 0 (with -wire)")
		aggTier      = flag.Bool("agg", false, "diff aggregation-tier reports (dgs-bench -aggbench) instead of microbench reports")
		minAgg       = flag.Float64("min-agg-speedup", 3.0, "tiered 4-agg pushes/sec floor vs the direct topology (with -agg)")
		readPath     = flag.Bool("read", false, "diff read-path reports (dgs-bench -readbench) instead of microbench reports")
		minScrape    = flag.Float64("min-scrape-speedup", 2.0, "push throughput under scrape load floor vs the full-lock snapshot path (with -read)")
		maxPollGap   = flag.Float64("max-poll-gap-millis", 1000, "replica worst poll gap ceiling under load, milliseconds (with -read)")
		ckpt         = flag.Bool("checkpoint", false, "diff checkpoint reports (dgs-bench -ckptbench) instead of microbench reports")
		minIncr      = flag.Float64("min-incremental-speedup", 2.0, "incremental-vs-full capture floor (with -checkpoint)")
		minSkip      = flag.Float64("min-skip-ratio", 0.5, "steady-state dirty-block skip floor (with -checkpoint)")
		minRetained  = flag.Float64("min-push-retained", 0.5, "push throughput retained under concurrent checkpointing (with -checkpoint)")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "dgs-benchdiff: -current is required")
		os.Exit(2)
	}
	if *wire {
		baseline, err := loadWire(*baselinePath)
		fatalIf(err)
		current, err := loadWire(*currentPath)
		fatalIf(err)
		problems := diffWire(baseline, current, *maxWireRatio)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
			}
			os.Exit(1)
		}
		fmt.Printf("dgs-benchdiff: OK (worst quantized embed ratio %.3fx over %v, ceiling %.2fx)\n",
			current.QuantizedEmbedMaxRatio, current.QuantizedCodecs, *maxWireRatio)
		return
	}
	if *aggTier {
		baseline, err := loadAgg(*baselinePath)
		fatalIf(err)
		current, err := loadAgg(*currentPath)
		fatalIf(err)
		problems := diffAgg(baseline, current, *minAgg)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
			}
			os.Exit(1)
		}
		var shared float64
		for _, pt := range current.Results {
			if pt.Topology == "tiered" && pt.Aggregators == 4 {
				shared = pt.SharedFrameRatio
			}
		}
		fmt.Printf("dgs-benchdiff: OK (tiered 4-agg %.2fx vs direct, floor %.2fx; %.0f%% downward frames shared)\n",
			current.SpeedupAt4, *minAgg, 100*shared)
		return
	}
	if *readPath {
		baseline, err := loadRead(*baselinePath)
		fatalIf(err)
		current, err := loadRead(*currentPath)
		fatalIf(err)
		problems := diffRead(baseline, current, *minScrape, *maxPollGap)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
			}
			os.Exit(1)
		}
		fmt.Printf("dgs-benchdiff: OK (scraped pushes %.2fx vs full-lock, floor %.2fx; replica drain exact over %s, worst poll gap %.0f ms, ceiling %.0f ms)\n",
			current.ScrapeSpeedup, *minScrape, current.ReplicaCodec, current.MaxPollGapMillis, *maxPollGap)
		return
	}
	if *ckpt {
		baseline, err := loadCkpt(*baselinePath)
		fatalIf(err)
		current, err := loadCkpt(*currentPath)
		fatalIf(err)
		problems := diffCkpt(baseline, current, *minIncr, *minSkip, *minRetained)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
			}
			os.Exit(1)
		}
		fmt.Printf("dgs-benchdiff: OK (incremental capture %.2fx vs full, %.0f%% blocks skipped, %.2f push throughput retained)\n",
			current.IncrementalSpeedup, 100*current.SkipRatio, current.PushThroughputRatio)
		return
	}
	if *server {
		baseline, err := loadServer(*baselinePath)
		fatalIf(err)
		current, err := loadServer(*currentPath)
		fatalIf(err)
		problems := diffServer(baseline, current, *minServer, *minCNNSkip)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
			}
			os.Exit(1)
		}
		fmt.Printf("dgs-benchdiff: OK (server %.2fx vs single-mutex at 8 workers, cnn skip %.2f; floors %.2fx/%.2f)\n",
			current.SpeedupAt8, current.CNNScanSkipRatio, *minServer, *minCNNSkip)
		return
	}
	if *pipeline {
		baseline, err := loadPipeline(*baselinePath)
		fatalIf(err)
		current, err := loadPipeline(*currentPath)
		fatalIf(err)
		problems := diffPipeline(baseline, current, *minPipeline)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
			}
			os.Exit(1)
		}
		fmt.Printf("dgs-benchdiff: OK (pipelined %.2fx vs sync, floor %.2fx; exchange 0 allocs/op)\n",
			current.Speedup, *minPipeline)
		return
	}
	baseline, err := load(*baselinePath)
	fatalIf(err)
	current, err := load(*currentPath)
	fatalIf(err)

	problems := diff(baseline, current, rules{
		maxSlowdown:       *maxSlowdown,
		allowSIMDMismatch: *allowSIMD,
	})
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "dgs-benchdiff: FAIL:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("dgs-benchdiff: OK (%d benchmarks, %s)\n", len(baseline.Results), gateSummary(baseline, current, *maxSlowdown))
}

// gateSummary describes which speedup gates actually ran, so CI logs don't
// claim coverage that was skipped: reaching OK with mismatched SIMD kernels
// means -allow-simd-mismatch reduced the gate to allocations only.
func gateSummary(baseline, current *bench.Report, maxSlowdown float64) string {
	if baseline.SIMDKernel != current.SIMDKernel {
		return "0 speedup gates (skipped: simd mismatch)"
	}
	return fmt.Sprintf("%d speedup gates, tolerance %.0f%%", len(baseline.Speedups), 100*maxSlowdown)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgs-benchdiff:", err)
		os.Exit(1)
	}
}
