package experiments

import (
	"fmt"
	"strings"

	"dgs/internal/stats"
	"dgs/internal/trainer"
)

// Ablations exercises the design choices DESIGN.md calls out beyond the
// paper's headline tables:
//
//   - DGS + SBC quantization of the sparse values (the paper's §6
//     future-work combination of sparsification and quantization);
//   - secondary-compression ratio sweep (bandwidth knob of §4.2.2);
//   - keep-ratio sweep (R = 1%, 5%, 25%).
func Ablations(s Scale) (*Report, error) {
	p := cifarPreset(s)
	title := "Ablations: SBC combination, secondary ratio, keep ratio"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	values := map[string]float64{}

	run := func(label string, mutate func(*trainer.Config)) (*trainer.Result, error) {
		cfg := p.runConfig(trainer.DGS, 4, p.batch, 1)
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := trainer.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", label, err)
		}
		values["acc_"+label] = res.FinalAccuracy
		values["upbytes_"+label] = res.AvgUpBytes
		values["downbytes_"+label] = res.AvgDownBytes
		return res, nil
	}

	tbl := stats.NewTable("Variant", "Top-1 Accuracy", "Up B/iter", "Down B/iter")
	addRow := func(label string, res *trainer.Result) {
		tbl.AddRow(label, fmt.Sprintf("%.2f%%", 100*res.FinalAccuracy),
			fmt.Sprintf("%.0f", res.AvgUpBytes), fmt.Sprintf("%.0f", res.AvgDownBytes))
	}

	base, err := run("dgs", nil)
	if err != nil {
		return nil, err
	}
	addRow("DGS (R=1%)", base)

	sbc, err := run("dgs+sbc", func(c *trainer.Config) { c.Codec = "sbc" })
	if err != nil {
		return nil, err
	}
	addRow("DGS + SBC values", sbc)

	for _, ratio := range []float64{0.01, 0.05} {
		ratio := ratio
		label := fmt.Sprintf("dgs+secondary%.2f", ratio)
		res, err := run(label, func(c *trainer.Config) {
			c.Secondary = true
			c.SecondaryRatio = ratio
		})
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("DGS + secondary (keep %.0f%%)", 100*ratio), res)
	}

	for _, keep := range []float64{0.05, 0.25} {
		keep := keep
		label := fmt.Sprintf("dgs+keep%.2f", keep)
		res, err := run(label, func(c *trainer.Config) { c.KeepRatio = keep })
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("DGS, R=%.0f%%", 100*keep), res)
	}

	b.WriteString(tbl.String())
	b.WriteString("\nSBC quantization shrinks upward bytes further at a small accuracy cost;\n")
	b.WriteString("secondary compression bounds downward traffic; larger R trades bytes for\n")
	b.WriteString("faster per-coordinate information flow.\n")
	return &Report{ID: "ablations", Text: b.String(), Values: values}, nil
}
