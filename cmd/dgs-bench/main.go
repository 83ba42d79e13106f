// Command dgs-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	dgs-bench -list
//	dgs-bench -exp figure2            # one experiment at short scale
//	dgs-bench -exp table3 -full       # paper-faithful scale
//	dgs-bench -all                    # everything (slow at -full)
//	dgs-bench -exp figure2 -out dir   # also write report text files
//	dgs-bench -exp figure2 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The hot-path measurements live elsewhere: the end-to-end workloads in
// benchmark/ (see benchmark/README.md) and the kernel benchmarks that
// `make bench-kernels` runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dgs/internal/experiments"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		exp        = flag.String("exp", "", "experiment id to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "paper-faithful scale (slow); default is short scale")
		out        = flag.String("out", "", "directory to also write report text files into")
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
