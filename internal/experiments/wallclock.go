package experiments

import (
	"fmt"
	"strings"

	"dgs/internal/netsim"
	"dgs/internal/stats"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
)

// messageProfile captures the measured communication behaviour of one
// method: encoded bytes per parameter in each direction. The profile is
// measured from real runs of our implementation and then scaled to the
// paper's ResNet-18 parameter count, restoring the paper's
// compute/communication balance while keeping our measured compression
// ratios (see DESIGN.md §1).
type messageProfile struct {
	method        trainer.Method
	upPerParam    float64 // bytes per model parameter, upward
	downPerParam  float64 // bytes per model parameter, downward
	lossCurve     *stats.Series
	itersMeasured int
	modelParams   int
}

// measureProfile runs a short real training to extract the wire profile.
func measureProfile(p imagePreset, m trainer.Method, workers int, secondary bool) (*messageProfile, error) {
	cfg := p.runConfig(m, workers, p.batch, 1)
	if secondary && m != trainer.ASGD && m != trainer.MSGD {
		cfg.Secondary = true
		cfg.SecondaryRatio = p.keepRatio
	}
	res, err := trainer.Run(cfg)
	if err != nil {
		return nil, err
	}
	nParams := cfg.BuildModel(tensor.NewRNG(1)).NumParams()
	return &messageProfile{
		method:        m,
		upPerParam:    res.AvgUpBytes / float64(nParams),
		downPerParam:  res.AvgDownBytes / float64(nParams),
		lossCurve:     res.Loss,
		itersMeasured: res.Iterations,
		modelParams:   nParams,
	}, nil
}

// simulate runs the network simulator with a profile scaled to ResNet-18.
func simulate(prof *messageProfile, workers int, bandwidthBps float64, iterations int) netsim.Result {
	up := prof.upPerParam * ResNet18Params
	down := prof.downPerParam * ResNet18Params
	return netsim.Run(netsim.Config{
		Workers:       workers,
		ComputeTime:   paperComputeSeconds,
		ComputeJitter: 0.1,
		BandwidthBps:  bandwidthBps,
		LatencyS:      100e-6,
		ServerTimeS:   5e-3,
		UpBytes:       func(int) float64 { return up },
		DownBytes:     func(int) float64 { return down },
		Iterations:    iterations,
		Seed:          7,
	})
}

// Figure5 reproduces training-loss-vs-wall-clock at 8 workers over 1 Gbps:
// DGS (with secondary compression, as the paper's low-bandwidth setting
// uses) against ASGD. Loss curves come from real training; iteration
// timestamps come from the simulator driven by measured message sizes.
func Figure5(s Scale) (*Report, error) {
	p := cifarPreset(s)
	dgsProf, err := measureProfile(p, trainer.DGS, 8, true)
	if err != nil {
		return nil, err
	}
	asgdProf, err := measureProfile(p, trainer.ASGD, 8, false)
	if err != nil {
		return nil, err
	}

	title := "Figure 5: training loss vs wall-clock, 8 workers, 1 Gbps"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))

	values := map[string]float64{}
	series := make([]*stats.Series, 0, 2)
	var times [2]float64
	for i, prof := range []*messageProfile{dgsProf, asgdProf} {
		sim := simulate(prof, 8, netsim.Gbps(1), prof.itersMeasured)
		// Map the i-th completed iteration to its simulated finish time.
		pts := smoothed(prof.lossCurve, 25).Points()
		sr := stats.NewSeries(prof.method.String())
		for j, pt := range pts {
			if j < len(sim.IterDoneTimes) {
				sr.Add(sim.IterDoneTimes[j]/60, pt.Y) // minutes
			}
		}
		series = append(series, sr)
		times[i] = sim.TotalTime / 60
		values["minutes_"+prof.method.String()] = times[i]
		values["upPerParam_"+prof.method.String()] = prof.upPerParam
		values["downPerParam_"+prof.method.String()] = prof.downPerParam
	}
	b.WriteString("Training loss vs minutes (simulated 1 Gbps link, ResNet-18-scale messages):\n")
	b.WriteString(stats.AsciiPlot(72, 18, series...))
	speedup := times[1] / times[0]
	values["speedup"] = speedup
	fmt.Fprintf(&b, "\nDGS completes in %.0f min vs ASGD %.0f min: %.1fx speedup (paper: 88 vs 506 min, 5.7x)\n",
		times[0], times[1], speedup)
	figures := map[string]string{}
	var svg strings.Builder
	if err := stats.WriteSVG(&svg, stats.SVGOptions{Title: title, XLabel: "minutes", YLabel: "training loss"}, series...); err == nil {
		figures["figure5.svg"] = svg.String()
	}
	return &Report{ID: "figure5", Text: b.String(), Values: values, Figures: figures}, nil
}

// figure6Workers returns the sweep points.
func figure6Workers(s Scale) []int {
	if s == Short {
		return []int{1, 4, 8, 16}
	}
	return []int{1, 2, 4, 8, 16, 32}
}

// Figure6 reproduces the speedup-vs-workers curves for DGS and ASGD at
// 10 Gbps and 1 Gbps.
func Figure6(s Scale) (*Report, error) {
	p := cifarPreset(s)
	// Measure message profiles once per method from short real runs.
	profCfg := p
	if s == Full {
		// The wire profile does not need long training; reuse Short here.
		profCfg = cifarPreset(Short)
	}
	dgsProf, err := measureProfile(profCfg, trainer.DGS, 4, true)
	if err != nil {
		return nil, err
	}
	asgdProf, err := measureProfile(profCfg, trainer.ASGD, 4, false)
	if err != nil {
		return nil, err
	}

	title := "Figure 6: speedup vs workers at 10 Gbps and 1 Gbps"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	tbl := stats.NewTable("Workers", "ASGD 10Gbps", "DGS 10Gbps", "ASGD 1Gbps", "DGS 1Gbps")
	values := map[string]float64{}
	var plotSeries []*stats.Series
	names := []string{"ASGD-10G", "DGS-10G", "ASGD-1G", "DGS-1G"}
	for _, n := range names {
		plotSeries = append(plotSeries, stats.NewSeries(n))
	}
	for _, workers := range figure6Workers(s) {
		iters := 40 * workers
		cells := []string{fmt.Sprint(workers)}
		for i, combo := range []struct {
			prof *messageProfile
			bw   float64
		}{
			{asgdProf, netsim.Gbps(10)},
			{dgsProf, netsim.Gbps(10)},
			{asgdProf, netsim.Gbps(1)},
			{dgsProf, netsim.Gbps(1)},
		} {
			sim := simulate(combo.prof, workers, combo.bw, iters)
			sp := netsim.Speedup(&sim, paperComputeSeconds)
			cells = append(cells, fmt.Sprintf("%.2fx", sp))
			key := fmt.Sprintf("speedup_%s_%dw", names[i], workers)
			values[key] = sp
			plotSeries[i].Add(float64(workers), sp)
		}
		tbl.AddRow(cells...)
	}
	b.WriteString(tbl.String())
	b.WriteString("\nSpeedup vs workers:\n")
	b.WriteString(stats.AsciiPlot(72, 18, plotSeries...))
	figures := map[string]string{}
	var svg strings.Builder
	if err := stats.WriteSVG(&svg, stats.SVGOptions{Title: title, XLabel: "workers", YLabel: "speedup"}, plotSeries...); err == nil {
		figures["figure6.svg"] = svg.String()
	}
	return &Report{ID: "figure6", Text: b.String(), Values: values, Figures: figures}, nil
}

// MemoryUsage reproduces §5.6.2: server overhead is one v_k per worker;
// DGS moves the worker-side residual/velocity budget to a single buffer.
func MemoryUsage(s Scale) (*Report, error) {
	p := cifarPreset(s)
	title := "§5.6.2: memory usage"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	values := map[string]float64{}

	// Real measurements on our model.
	tbl := stats.NewTable("Method", "Worker optimizer state", "Server state (4 workers)")
	for _, m := range []trainer.Method{trainer.ASGD, trainer.GDAsync, trainer.DGCAsync, trainer.DGS} {
		cfg := p.runConfig(m, 4, p.batch, 1)
		cfg.Epochs = 1
		res, err := trainer.Run(cfg)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(m.String(),
			fmt.Sprintf("%d B", res.WorkerStateBytes),
			fmt.Sprintf("%d B", res.ServerStateBytes))
		values["worker_bytes_"+m.String()] = float64(res.WorkerStateBytes)
		values["server_bytes_"+m.String()] = float64(res.ServerStateBytes)
	}
	b.WriteString(tbl.String())

	// Paper-scale projection: ResNet-18 is ~46 MB; a 16 GB card hosting
	// the server can hold M plus one v_k per worker.
	const resnet18Bytes = 46e6
	const cardBytes = 16e9
	workersSupported := (cardBytes - resnet18Bytes) / resnet18Bytes
	values["resnet18_workers_on_16GB"] = workersSupported
	fmt.Fprintf(&b, "\nProjection at ResNet-18 scale (46 MB of parameters):\n")
	fmt.Fprintf(&b, "  server overhead = workers x 46 MB; a 16 GB card supports ~%.0f workers (paper: \"more than 300\")\n", workersSupported)
	return &Report{ID: "memory", Text: b.String(), Values: values}, nil
}
