// Command dgs-bench regenerates the paper's tables and figures, and runs
// the tracked hot-path microbenchmarks.
//
// Usage:
//
//	dgs-bench -list
//	dgs-bench -exp figure2            # one experiment at short scale
//	dgs-bench -exp table3 -full       # paper-faithful scale
//	dgs-bench -all                    # everything (slow at -full)
//	dgs-bench -exp figure2 -out dir   # also write report text files
//	dgs-bench -microbench             # kernel/hot-path benchmarks → BENCH_PR2.json
//	dgs-bench -pipebench              # pipelined-exchange benchmark → BENCH_PR4.json
//	dgs-bench -serverbench            # many-worker server saturation → BENCH_PR7.json
//	dgs-bench -wirebench              # per-codec wire bytes/step → BENCH_PR8.json
//	dgs-bench -readbench              # snapshot stall + replica lag → BENCH_PR10.json
//	dgs-bench -microbench -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dgs/internal/bench"
	"dgs/internal/experiments"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		exp        = flag.String("exp", "", "experiment id to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "paper-faithful scale (slow); default is short scale")
		out        = flag.String("out", "", "directory to also write report text files into")
		micro      = flag.Bool("microbench", false, "run the tracked microbenchmarks and write a JSON report")
		pipe       = flag.Bool("pipebench", false, "run the pipelined-exchange benchmark and write a JSON report")
		server     = flag.Bool("serverbench", false, "run the many-worker server saturation benchmark and write a JSON report")
		ckpt       = flag.Bool("ckptbench", false, "run the checkpoint capture/interference benchmark and write a JSON report")
		wire       = flag.Bool("wirebench", false, "run the per-codec wire compression benchmark and write a JSON report")
		wireSteps  = flag.Int("wire-steps", 0, "measured exchanges per codec/workload cell for -wirebench (0 = default 64)")
		aggb       = flag.Bool("aggbench", false, "run the aggregation-tier fan-in benchmark (64 TCP workers, direct vs tiered) and write a JSON report")
		aggPush    = flag.Int("agg-pushes", 0, "measured pushes per worker for -aggbench (0 = default 64)")
		readb      = flag.Bool("readbench", false, "run the read-path benchmark (snapshot stall + replica lag) and write a JSON report")
		readPush   = flag.Int("read-pushes", 0, "measured pushes per worker for -readbench (0 = default 256)")
		microOut   = flag.String("json", "", "report path (default BENCH_PR2.json for -microbench, BENCH_PR4.json for -pipebench, BENCH_PR7.json for -serverbench, BENCH_PR6.json for -ckptbench, BENCH_PR8.json for -wirebench)")
		benchtime  = flag.String("benchtime", "", "per-benchmark time or count for -microbench (e.g. 1s, 100x)")
		pipeSteps  = flag.Int("pipe-steps", 0, "measured steps per pipelined run (0 = default 240)")
		pipeRTT    = flag.Duration("pipe-rtt", 0, "simulated round-trip time (0 = auto-calibrated from compute)")
		serverPush = flag.Int("server-pushes", 0, "measured pushes per worker for -serverbench (0 = default 256)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			}
		}()
	}

	if *micro {
		path := *microOut
		if path == "" {
			path = "BENCH_PR2.json"
		}
		if err := runMicro(path, *benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *pipe {
		path := *microOut
		if path == "" {
			path = "BENCH_PR4.json"
		}
		if err := runPipe(path, *pipeSteps, *pipeRTT); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *server {
		path := *microOut
		if path == "" {
			path = "BENCH_PR7.json"
		}
		if err := runServer(path, *serverPush); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *ckpt {
		path := *microOut
		if path == "" {
			path = "BENCH_PR6.json"
		}
		if err := runCkpt(path, *serverPush); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *wire {
		path := *microOut
		if path == "" {
			path = "BENCH_PR8.json"
		}
		if err := runWire(path, *wireSteps); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *aggb {
		path := *microOut
		if path == "" {
			path = "BENCH_PR9.json"
		}
		if err := runAgg(path, *aggPush); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *readb {
		path := *microOut
		if path == "" {
			path = "BENCH_PR10.json"
		}
		if err := runRead(path, *readPush); err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	scale := experiments.Short
	if *full {
		scale = experiments.Full
	}
	var ids []string
	switch {
	case *all:
		ids = experiments.IDs()
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "dgs-bench: specify -exp <id>, -all, or -list")
		os.Exit(2)
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(strings.TrimSpace(id), scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dgs-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(rep.Text)
		fmt.Printf("[%s completed in %v]\n\n", rep.ID, time.Since(start).Round(time.Second))
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*out, rep.ID+".txt")
			if err := os.WriteFile(path, []byte(rep.Text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
				os.Exit(1)
			}
			for name, svg := range rep.Figures {
				if err := os.WriteFile(filepath.Join(*out, name), []byte(svg), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
}

// runPipe runs the pipelined-exchange benchmark and writes the JSON report.
func runPipe(path string, steps int, rtt time.Duration) error {
	rep, err := bench.RunPipeline(steps, rtt)
	if err != nil {
		return err
	}
	fmt.Printf("rtt %.2f ms, serial step %.2f ms, %d steps per run\n",
		rep.RTTMillis, rep.SerialStepMillis, rep.Steps)
	fmt.Printf("sync (depth 1):      %8.1f steps/sec\n", rep.StepsPerSecSync)
	fmt.Printf("pipelined (depth %d): %8.1f steps/sec\n", rep.PipelineDepth, rep.StepsPerSecPipelined)
	fmt.Printf("speedup:             %8.2fx\n", rep.Speedup)
	fmt.Printf("tcp exchange:        %8.0f ns/op %d allocs/op\n", rep.ExchangeNsPerOp, rep.ExchangeAllocsPerOp)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[pipeline report written to %s]\n", path)
	return nil
}

// runServer runs the many-worker server saturation benchmark and writes the
// JSON report.
func runServer(path string, pushesPerWorker int) error {
	rep, err := bench.RunServer(pushesPerWorker)
	if err != nil {
		return err
	}
	fmt.Printf("%d pushes per worker\n", rep.PushesPerWorker)
	for _, r := range rep.Results {
		fmt.Printf("%-15s %2d workers %d shard(s) block %4d: %9.0f pushes/sec (p99 %7.0f µs) vs baseline %9.0f (p99 %7.0f µs) = %5.2fx, %4.1f%% blocks skipped\n",
			r.Workload, r.Workers, r.Shards, r.BlockSize,
			r.PushesPerSec, r.P99Micros,
			r.BaselinePushesPerSec, r.BaselineP99Micros,
			r.Speedup, 100*r.ScanSkipRatio)
	}
	fmt.Printf("snapshot stall (2 scrapers): full-lock %9.0f pushes/sec (p99 %7.0f µs) vs copy-on-version %9.0f (p99 %7.0f µs) = %5.2fx\n",
		rep.SnapStallLockedPushesPerSec, rep.SnapStallLockedP99Micros,
		rep.SnapStallCopyPushesPerSec, rep.SnapStallCopyP99Micros, rep.SnapStallSpeedup)
	fmt.Printf("gated: embed 8-worker %.2fx, cnn skip ratio %.3f\n",
		rep.SpeedupAt8, rep.CNNScanSkipRatio)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[server report written to %s]\n", path)
	return nil
}

func runAgg(path string, pushesPerWorker int) error {
	rep, err := bench.RunAgg(pushesPerWorker)
	if err != nil {
		return err
	}
	fmt.Printf("%d workers, %d pushes each, upstream max-inflight %d\n",
		rep.Workers, rep.PushesPerWorker, rep.MaxInflight)
	for _, r := range rep.Results {
		extra := ""
		if r.Topology == "tiered" {
			extra = fmt.Sprintf("  dedup %5.2fx shared-frames %4.1f%% window %4.1f parts",
				r.DedupFactor, 100*r.SharedFrameRatio, r.MeanWindowParts)
		}
		fmt.Printf("%-7s %d agg(s): %9.0f pushes/sec (p99 %7.0f µs, worst worker %7.0f µs)%s\n",
			r.Topology, r.Aggregators, r.PushesPerSec, r.P99Micros, r.WorstWorkerP99Micros, extra)
	}
	fmt.Printf("gated: tiered 4-agg speedup %.2fx over direct\n", rep.SpeedupAt4)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[agg report written to %s]\n", path)
	return nil
}

// runRead runs the read-path benchmark (snapshot stall under concurrent
// scrapers, replica lag and drain exactness) and writes the JSON report.
func runRead(path string, pushesPerWorker int) error {
	rep, err := bench.RunRead(pushesPerWorker)
	if err != nil {
		return err
	}
	fmt.Printf("%d workers, %d pushes each, %d scrapers\n", rep.Workers, rep.PushesPerWorker, rep.Scrapers)
	fmt.Printf("no scraper:      %9.0f pushes/sec\n", rep.NoScrapePushesPerSec)
	fmt.Printf("full-lock scrape:%9.0f pushes/sec (p99 %7.0f µs, %6.1f scrapes/sec)\n",
		rep.LockedPushesPerSec, rep.LockedP99Micros, rep.LockedScrapesPerSec)
	fmt.Printf("copy-on-version: %9.0f pushes/sec (p99 %7.0f µs, %6.1f scrapes/sec)\n",
		rep.CopyPushesPerSec, rep.CopyP99Micros, rep.CopyScrapesPerSec)
	fmt.Printf("replica (%s): %d polls, %d coords, %d rebase(s), worst poll gap %.1f ms, drain %.1f ms exact=%v\n",
		rep.ReplicaCodec, rep.ReplicaPolls, rep.ReplicaAppliedCoords, rep.ReplicaRebases,
		rep.MaxPollGapMillis, rep.DrainMillis, rep.DrainExact)
	fmt.Printf("gated: scraped push throughput %.2fx vs full-lock\n", rep.ScrapeSpeedup)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[read report written to %s]\n", path)
	return nil
}

func runCkpt(path string, pushesPerWorker int) error {
	if pushesPerWorker <= 0 {
		pushesPerWorker = 256
	}
	rep, err := bench.RunCkpt(pushesPerWorker)
	if err != nil {
		return err
	}
	fmt.Printf("model %d bytes, block size %d, %d workers\n", rep.ModelBytes, rep.BlockSize, rep.Workers)
	fmt.Printf("capture: full %.0f µs, incremental %.0f µs = %.2fx (%.1f%% blocks skipped)\n",
		rep.FullCaptureMicros, rep.IncrCaptureMicros, rep.IncrementalSpeedup, 100*rep.SkipRatio)
	fmt.Printf("encode: %d bytes in %.0f µs\n", rep.EncodedBytes, rep.EncodeMicros)
	fmt.Printf("push interference: %.0f/s alone, %.0f/s under checkpointing = %.2f retained (%d captures)\n",
		rep.PushesPerSecBaseline, rep.PushesPerSecCkpt, rep.PushThroughputRatio, rep.CapturesDuringRun)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[checkpoint report written to %s]\n", path)
	return nil
}

// runWire runs the per-codec wire compression benchmark and writes the JSON
// report.
func runWire(path string, steps int) error {
	rep, err := bench.RunWire(steps)
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-8s %-6s up %9.0f B/step (%.3fx raw)  down %9.0f B/step (%.3fx raw)  encode %8.0f ns/op  decode %8.0f ns/op\n",
			r.Codec, r.Workload, r.BytesPerStepUp, r.UpRatioVsRaw,
			r.BytesPerStepDown, r.DownRatioVsRaw, r.EncodeNsPerOp, r.DecodeNsPerOp)
	}
	fmt.Printf("gated: worst quantized embed ratio %.3fx over %v\n",
		rep.QuantizedEmbedMaxRatio, rep.QuantizedCodecs)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[wire report written to %s]\n", path)
	return nil
}

// runMicro runs the tracked microbenchmarks and writes the JSON report.
func runMicro(path, benchtime string) error {
	rep, err := bench.RunMicro(benchtime)
	if err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Printf("%-24s %14.0f ns/op %8d B/op %6d allocs/op\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	for key, s := range rep.Speedups {
		fmt.Printf("%-24s %.2fx vs baseline\n", key, s)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("[microbench report written to %s]\n", path)
	return nil
}
