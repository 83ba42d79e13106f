package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dgs/internal/experiments"
	"dgs/internal/stats"
)

// expCmd regenerates the paper's tables and figures.
//
//	dgs exp -list
//	dgs exp -exp figure2            # one experiment at short scale
//	dgs exp -exp table3 -full       # paper-faithful scale
//	dgs exp -all                    # everything (slow at -full)
//	dgs exp -exp figure2 -out dir   # also write report text files
//	dgs exp -exp figure2 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The hot-path measurements live elsewhere: the end-to-end workloads in
// benchmark/ (see benchmark/README.md) and the kernel benchmarks that
// `make bench-kernels` runs.
func expCmd(fs *flag.FlagSet) func() {
	list := fs.Bool("list", false, "list available experiments")
	exp := fs.String("exp", "", "experiment id to run (see -list)")
	all := fs.Bool("all", false, "run every experiment")
	full := fs.Bool("full", false, "paper-faithful scale (slow); default is short scale")
	out := fs.String("out", "", "directory to also write report text files into")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	return func() {
		if *cpuprofile != "" {
			f := must(os.Create(*cpuprofile))
			defer f.Close()
			fatalIf(pprof.StartCPUProfile(f), "")
			defer pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			defer func() {
				f, err := os.Create(*memprofile)
				if err == nil {
					runtime.GC()
					err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "dgs-bench: %v\n", err)
				}
			}()
		}

		if *list {
			fmt.Println(strings.Join(experiments.IDs(), "\n"))
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
			fatalIf(err, id)
			fmt.Println(rep.Text)
			fmt.Printf("[%s completed in %v]\n\n", rep.ID, time.Since(start).Round(time.Second))
			if *out == "" {
				continue
			}
			fatalIf(os.MkdirAll(*out, 0o755), "")
			fatalIf(os.WriteFile(filepath.Join(*out, rep.ID+".txt"), []byte(rep.Text), 0o644), "")
			for name, svg := range rep.Figures {
				fatalIf(os.WriteFile(filepath.Join(*out, name), []byte(svg), 0o644), "")
			}
		}
	}
}

// plotCmd converts a training-curve CSV (as produced by `dgs train -csv`
// or stats.WriteCSV) into an SVG line chart.
//
//	dgs train -method dgs -csv run.csv
//	dgs plot -in run.csv -out run.svg -title "DGS on CIFAR-like"
func plotCmd(fs *flag.FlagSet) func() {
	in := fs.String("in", "", "input CSV path (default stdin)")
	out := fs.String("out", "", "output SVG path (default stdout)")
	var opts stats.SVGOptions
	fs.StringVar(&opts.Title, "title", "", "chart title")
	fs.StringVar(&opts.XLabel, "xlabel", "epoch", "x axis label")
	fs.StringVar(&opts.YLabel, "ylabel", "", "y axis label")
	fs.IntVar(&opts.Width, "width", 640, "image width")
	fs.IntVar(&opts.Height, "height", 400, "image height")
	fs.BoolVar(&opts.LogY, "logy", false, "log-scale y axis")
	return func() {
		var r io.Reader = os.Stdin
		if *in != "" {
			f := must(os.Open(*in))
			defer f.Close()
			r = f
		}
		series := must(readCSV(r))

		var w io.Writer = os.Stdout
		if *out != "" {
			f := must(os.Create(*out))
			defer f.Close()
			w = f
		}
		fatalIf(stats.WriteSVG(w, opts, series...), "")
	}
}

// readCSV parses "x,name1,name2,..." rows into one series per column;
// empty cells are skipped.
func readCSV(r io.Reader) ([]*stats.Series, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dgs-plot: parse csv: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("dgs-plot: csv needs a header and at least one row")
	}
	header := rows[0]
	if len(header) < 2 {
		return nil, fmt.Errorf("dgs-plot: csv needs an x column and at least one series")
	}
	series := make([]*stats.Series, len(header)-1)
	for i := range series {
		series[i] = stats.NewSeries(header[i+1])
	}
	for rowIdx, row := range rows[1:] {
		x, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("dgs-plot: row %d: bad x %q", rowIdx+2, row[0])
		}
		for c := 1; c < len(row) && c < len(header); c++ {
			if row[c] == "" {
				continue
			}
			y, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				return nil, fmt.Errorf("dgs-plot: row %d col %d: bad value %q", rowIdx+2, c, row[c])
			}
			series[c-1].Add(x, y)
		}
	}
	return series, nil
}
