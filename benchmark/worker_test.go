package main

import (
	"math"
	"testing"

	"dgs/internal/data"
	"dgs/internal/ps"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
)

// firstExamples caps a dataset's train split, which is what sizes a
// worker's step budget, so the equivalence runs stay short.
type firstExamples struct {
	data.Dataset
	n int
}

func (d firstExamples) NumTrain() int { return d.n }

// trainOneWorker runs one worker of spec for steps steps against a fresh
// single-worker server over loopback TCP, through the production loop or
// the traced one, and returns its loss series and payload byte totals.
func trainOneWorker(t *testing.T, spec *trainSpec, steps int, traced bool) (losses []float64, up, down int64) {
	t.Helper()
	const seed = 7
	cfg := spec.config(seed)
	cfg.Workers, cfg.Epochs = 1, 1
	cfg.Dataset = firstExamples{cfg.Dataset, steps * cfg.BatchSize}
	st, err := newStack(ps.Config{
		LayerSizes: cfg.BuildModel(tensor.NewRNG(seed)).LayerSizes(), Workers: 1,
		Secondary: cfg.Secondary, SecondaryRatio: cfg.SecondaryRatio,
	}, spec.shards, serverTrace{reader: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.lis.Close()
	tr, err := dialWorker(st.lis.Addr(), 0, spec.depth)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if traced {
		w := &tracedWorker{cfg: &cfg, id: 0, tr: tr, tcr: newTracer(), log: &exchangeLog{}}
		if losses, err = w.run(steps); err != nil {
			t.Fatal(err)
		}
		return losses, w.log.up, w.log.down
	}
	m := &meter{Transport: tr, limit: steps}
	res, err := trainer.RunWorkerLoop(cfg, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Loss.Points() {
		losses = append(losses, p.Y)
	}
	return losses, m.log.up, m.log.down
}

// TestTracedLoopMatchesProduction pins the traced worker loop to
// trainer.RunWorkerLoop: same loss at every step, bit for bit, and the same
// bytes on the wire, for every training geometry the benchmark runs (sync
// and pipelined stacks, plain and secondary gather, one and two shards). If
// the production loop changes what it calls or in which order, this fails,
// and the stage budget has to follow before it is trusted again.
func TestTracedLoopMatchesProduction(t *testing.T) {
	for _, w := range workloads {
		if w.train == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			const steps = 24
			want, wantUp, wantDown := trainOneWorker(t, w.train, steps, false)
			got, gotUp, gotDown := trainOneWorker(t, w.train, steps, true)
			if len(want) != steps || len(got) != steps {
				t.Fatalf("production loop reported %d losses, traced loop %d, want %d", len(want), len(got), steps)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("step %d: production loss %v, traced loss %v", i, want[i], got[i])
				}
			}
			if wantUp != gotUp || wantDown != gotDown {
				t.Fatalf("production loop moved %d bytes up and %d down, traced loop %d and %d", wantUp, wantDown, gotUp, gotDown)
			}
		})
	}
}
