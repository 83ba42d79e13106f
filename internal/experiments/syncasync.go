package experiments

import (
	"fmt"
	"strings"

	"dgs/internal/stats"
	"dgs/internal/trainer"
)

// SyncAsync demonstrates the paper's motivating observation (§1, §3):
// Top-k sparsifiers were designed for synchronous training, where the
// barrier keeps a single model version and the aggregated broadcast stays
// sparse. Removing the barrier costs accuracy (staleness) and, without
// model-difference tracking, the downward channel becomes a dense model
// download. DGS recovers both: async speed with sparse dual-way traffic
// and SAMomentum's accuracy.
func SyncAsync(s Scale) (*Report, error) {
	p := cifarPreset(s)
	title := "Sync vs async: GD/DGC in their native setting vs the async variants vs DGS"
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n\n", title, strings.Repeat("=", len(title)))
	values := map[string]float64{}
	tbl := stats.NewTable("Method", "Mode", "Top-1 Accuracy", "Up B/iter", "Down B/iter")

	// Synchronous rows: the barrier runs of GD, DGC and, as MSGD at 4
	// workers, SSGD, from the same run description as the async rows.
	for _, sync := range []struct {
		name string
		m    trainer.Method
	}{{"SSGD", trainer.MSGD}, {"GD", trainer.GDAsync}, {"DGC", trainer.DGCAsync}} {
		res, err := trainer.RunSync(p.runConfig(sync.m, 4, p.batch, 1))
		if err != nil {
			return nil, fmt.Errorf("experiments: sync %s: %w", sync.name, err)
		}
		tbl.AddRow(sync.name, "sync", fmt.Sprintf("%.2f%%", 100*res.FinalAccuracy),
			fmt.Sprintf("%.0f", res.AvgUpBytes), fmt.Sprintf("%.0f", res.AvgDownBytes))
		values["acc_sync_"+sync.name] = res.FinalAccuracy
		values["upbytes_sync_"+sync.name] = res.AvgUpBytes
		values["downbytes_sync_"+sync.name] = res.AvgDownBytes
	}

	// Asynchronous rows.
	for _, m := range []trainer.Method{trainer.ASGD, trainer.GDAsync, trainer.DGCAsync, trainer.DGS} {
		res, err := trainer.Run(p.runConfig(m, 4, p.batch, 1))
		if err != nil {
			return nil, fmt.Errorf("experiments: async %s: %w", m, err)
		}
		tbl.AddRow(m.String(), "async", fmt.Sprintf("%.2f%%", 100*res.FinalAccuracy),
			fmt.Sprintf("%.0f", res.AvgUpBytes), fmt.Sprintf("%.0f", res.AvgDownBytes))
		values["acc_async_"+m.String()] = res.FinalAccuracy
		values["upbytes_async_"+m.String()] = res.AvgUpBytes
		values["downbytes_async_"+m.String()] = res.AvgDownBytes
	}
	b.WriteString(tbl.String())
	b.WriteString("\nThe sync rows have no staleness but pay a barrier every step; the async\n")
	b.WriteString("rows trade staleness for wait-free workers. DGS keeps the async rows'\n")
	b.WriteString("traffic sparse in both directions while holding accuracy.\n")
	return &Report{ID: "syncasync", Text: b.String(), Values: values}, nil
}
