package experiments

import (
	"fmt"
	"strings"

	"dgs/internal/stats"
	"dgs/internal/trainer"
)

// table3Workers returns the worker counts for the CIFAR scaling sweep.
func table3Workers(s Scale) []int {
	if s == Short {
		return []int{1, 4, 8}
	}
	return []int{1, 4, 8, 16, 32}
}

// Table3 reproduces the CIFAR scaling study: worker counts with the total
// batch held constant (per-worker batch = refBatch / N), all methods, plus
// the paper's §5.4 momentum ablation (m=0.3 at the largest scale, which
// the paper found *improves* DGS accuracy to 93.7%).
func Table3(s Scale) (*Report, error) {
	p := cifarPreset(s)
	title := "Table 3: CIFAR-like scaling (total batch fixed, batch/worker = total/N)"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	tbl := stats.NewTable("Workers", "Batch/worker", "Method", "Top-1 Accuracy", "Δ vs MSGD")
	values := map[string]float64{}

	// Baseline: single-node MSGD at the full batch.
	msgdCfg := p.runConfig(trainer.MSGD, 1, p.refBatch, 1)
	msgd, err := trainer.Run(msgdCfg)
	if err != nil {
		return nil, err
	}
	base := msgd.FinalAccuracy
	tbl.AddRow("1", fmt.Sprint(p.refBatch), "MSGD", fmt.Sprintf("%.2f%%", 100*base), "-")
	values["acc_1_MSGD"] = base

	asyncMethods := []trainer.Method{trainer.ASGD, trainer.GDAsync, trainer.DGCAsync, trainer.DGS}
	for _, workers := range table3Workers(s) {
		if workers == 1 {
			continue
		}
		batch := p.refBatch / workers
		if batch < 1 {
			batch = 1
		}
		for _, m := range asyncMethods {
			cfg := p.runConfig(m, workers, batch, 1)
			res, err := trainer.Run(cfg)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("acc_%d_%s", workers, m)
			values[key] = res.FinalAccuracy
			tbl.AddRow(fmt.Sprint(workers), fmt.Sprint(batch), m.String(),
				fmt.Sprintf("%.2f%%", 100*res.FinalAccuracy),
				fmt.Sprintf("%+.2f%%", 100*(res.FinalAccuracy-base)))
		}
	}
	b.WriteString(tbl.String())

	// §5.4 momentum ablation at the largest scale.
	largest := table3Workers(s)[len(table3Workers(s))-1]
	batch := p.refBatch / largest
	if batch < 1 {
		batch = 1
	}
	abl := p.runConfig(trainer.DGS, largest, batch, 1)
	abl.Momentum = 0.3
	ablRes, err := trainer.Run(abl)
	if err != nil {
		return nil, err
	}
	values[fmt.Sprintf("acc_%d_DGS_m0.3", largest)] = ablRes.FinalAccuracy
	fmt.Fprintf(&b, "\n§5.4 ablation: DGS with momentum 0.3 at %d workers: %.2f%% (m=0.7 gave %.2f%%)\n",
		largest, 100*ablRes.FinalAccuracy, 100*values[fmt.Sprintf("acc_%d_DGS", largest)])
	return &Report{ID: "table3", Text: b.String(), Values: values}, nil
}

// Table4 reproduces the ImageNet scaling rows (4 and 16 workers).
func Table4(s Scale) (*Report, error) {
	p := imagenetPreset(s)
	title := "Table 4: ImageNet-like scaling"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	tbl := stats.NewTable("Workers", "Method", "Top-1 Accuracy", "Δ vs MSGD")
	values := map[string]float64{}

	msgd, err := trainer.Run(p.runConfig(trainer.MSGD, 1, p.batch, 1))
	if err != nil {
		return nil, err
	}
	base := msgd.FinalAccuracy
	tbl.AddRow("1", "MSGD", fmt.Sprintf("%.2f%%", 100*base), "-")
	values["acc_1_MSGD"] = base

	asyncMethods := []trainer.Method{trainer.ASGD, trainer.GDAsync, trainer.DGCAsync, trainer.DGS}
	for _, workers := range []int{4, 16} {
		mom := p.momentum
		if workers == 16 {
			mom = 0.45 // the paper lowers momentum at 16 workers
		}
		for _, m := range asyncMethods {
			cfg := p.runConfig(m, workers, p.batch, 1)
			cfg.Momentum = mom
			res, err := trainer.Run(cfg)
			if err != nil {
				return nil, err
			}
			values[fmt.Sprintf("acc_%d_%s", workers, m)] = res.FinalAccuracy
			tbl.AddRow(fmt.Sprint(workers), m.String(),
				fmt.Sprintf("%.2f%%", 100*res.FinalAccuracy),
				fmt.Sprintf("%+.2f%%", 100*(res.FinalAccuracy-base)))
		}
	}
	b.WriteString(tbl.String())
	return &Report{ID: "table4", Text: b.String(), Values: values}, nil
}

// Table5 renders the qualitative technique matrix.
func Table5(Scale) (*Report, error) {
	title := "Table 5: techniques in each method"
	tbl := stats.NewTable("Method", "Sparsification", "Momentum", "Momentum correction", "Residual accumulation")
	tbl.AddRow("ASGD", "none", "none", "no", "no")
	tbl.AddRow("GD", "Top-k upward", "none", "no", "yes (worker residual)")
	tbl.AddRow("DGC", "Top-k upward", "vanilla", "yes (+factor masking)", "yes (worker velocity)")
	tbl.AddRow("GD-async", "dual-way (model difference)", "none", "no", "yes")
	tbl.AddRow("DGC-async", "dual-way (model difference)", "vanilla", "yes (+factor masking)", "yes")
	tbl.AddRow("DGS", "dual-way (model difference)", "SAMomentum", "not needed", "not needed")
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n%s", title, strings.Repeat("=", len(title)), tbl.String())
	return &Report{ID: "table5", Text: b.String(), Values: map[string]float64{}}, nil
}
