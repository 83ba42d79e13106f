package trainer

import (
	"math"
	"slices"
	"testing"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/raceflag"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// The convergence gate behind the CI `convergence` job: every wire codec
// must reach the target training loss in no more steps than the
// uncompressed asynchronous baseline (GD-async in the paper's terminology,
// ASGD here). Single-worker runs with fixed seeds are fully deterministic —
// sbc, the one lossy codec, draws no randomness — so this is a stable gate,
// not a statistical one.

// stepsToLoss returns the 1-based index of the first recorded training-loss
// point whose trailing window mean is at or below target, or -1 if the run
// never gets there. The window smooths per-batch noise so the gate measures
// convergence, not a lucky batch.
func stepsToLoss(res *Result, target float64, window int) int {
	pts := res.Loss.Points()
	sum := 0.0
	for i, p := range pts {
		sum += p.Y
		if i >= window {
			sum -= pts[i-window].Y
		}
		n := window
		if i+1 < n {
			n = i + 1
		}
		if sum/float64(n) <= target {
			return i + 1
		}
	}
	return -1
}

func TestConvergenceNoWorseThanGDAsync(t *testing.T) {
	const target = 0.30
	const window = 8

	base, err := Run(quickConfig(ASGD, 1))
	if err != nil {
		t.Fatal(err)
	}
	baseSteps := stepsToLoss(base, target, window)
	if baseSteps < 0 {
		t.Fatalf("GD-async never reached loss %.2f; target miscalibrated", target)
	}
	t.Logf("GD-async reaches loss %.2f in %d steps", target, baseSteps)

	for _, c := range sparse.Codecs() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			cfg := quickConfig(DGS, 1)
			cfg.Codec = c.Name()
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			steps := stepsToLoss(res, target, window)
			if steps < 0 {
				t.Fatalf("DGS/%s never reached loss %.2f", c.Name(), target)
			}
			t.Logf("DGS/%s reaches loss %.2f in %d steps", c.Name(), target, steps)
			if steps > baseSteps {
				t.Fatalf("DGS/%s needs %d steps to reach loss %.2f; GD-async needs %d — compression slowed convergence",
					c.Name(), steps, target, baseSteps)
			}
		})
	}
}

// mlpMixtureConfig is the benchmark's mlp_dgs geometry: the 64-512-512-64
// MLP (≈330k parameters) on the 64-class Gaussian mixture, batch 64, LR
// 0.02, m 0.7, keep 5 %, two epochs shared by two workers, which record
// 256 loss points between them.
func mlpMixtureConfig(m Method, codec string, seed uint64) Config {
	return Config{
		Method: m, Workers: 2, BatchSize: 64, Epochs: 2,
		LR: 0.02, Momentum: 0.7, KeepRatio: 0.05, Codec: codec, Seed: seed,
		Dataset:    data.NewGaussianMixture(64, 64, 8192, 512, 0.8, seed),
		BuildModel: func(rng *tensor.RNG) *nn.Model { return nn.NewMLP(rng, 64, 512, 512, 64) },
		// Only the loss series is judged: evaluate once, on one batch.
		EvalEveryEpochs: 1 << 30, EvalLimit: 64,
	}
}

// The multi-worker gate's constants. A run's final loss is the mean of its
// last convergenceTail loss points. SBC's median final loss may exceed
// raw's by at most sbcLossFactor: over seeds 1–3 DGS+SBC ended within 1.17×
// of raw.
const (
	convergenceSeeds = 5
	convergenceTail  = 16
	sbcLossFactor    = 1.5
)

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s) // NaN sorts first, so a NaN median needs a NaN majority
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// TestMultiWorkerCodecConvergence is the convergence gate at two workers,
// where asynchrony is real: GD-async, DGC-async and DGS, each with the raw
// and the SBC codec, over convergenceSeeds seeds on the benchmark MLP. For
// every cell the median final loss must be finite and below the median
// first point, and SBC's median must be within sbcLossFactor of raw's. The
// runs are not replayable (goroutine interleaving decides the apply order),
// hence medians. Under -short only DGS+SBC at seed 1 runs: the
// configuration whose error feedback used to re-send the wire error with
// momentum, and which then reached NaN within the run. The gate checks
// numbers, not synchronisation, and the race detector slows one run of the
// MLP twentyfold, so it skips itself there.
func TestMultiWorkerCodecConvergence(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("convergence gate: run without -race")
	}
	methods, codecs, seeds := []Method{GDAsync, DGCAsync, DGS}, []string{"raw", "sbc"}, convergenceSeeds
	if testing.Short() {
		methods, codecs, seeds = []Method{DGS}, []string{"sbc"}, 1
	}
	for _, m := range methods {
		t.Run(m.String(), func(t *testing.T) {
			final := map[string]float64{}
			for _, codec := range codecs {
				var firsts, finals []float64
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					res, err := Run(mlpMixtureConfig(m, codec, seed))
					if err != nil {
						t.Fatal(err)
					}
					pts := res.Loss.Points()
					if len(pts) < 2*convergenceTail {
						t.Fatalf("%s/%s seed %d: %d loss points", m, codec, seed, len(pts))
					}
					var tail float64
					for _, p := range pts[len(pts)-convergenceTail:] {
						tail += p.Y
					}
					firsts = append(firsts, pts[0].Y)
					finals = append(finals, tail/convergenceTail)
				}
				first, fin := median(firsts), median(finals)
				t.Logf("%s/%s: final losses %.3g (median %.3g), first point median %.3g", m, codec, finals, fin, first)
				if math.IsNaN(fin) || math.IsInf(fin, 0) || !(fin < first) {
					t.Errorf("%s/%s: median final loss %v is not finite and below the first point %v", m, codec, fin, first)
				}
				final[codec] = fin
			}
			if raw, sbc, ok := final["raw"], final["sbc"], len(final) == 2; ok && !(sbc <= sbcLossFactor*raw) {
				t.Errorf("%s: SBC's median final loss %.3g is beyond %.2g× raw's %.3g", m, sbc, sbcLossFactor, raw)
			}
		})
	}
}
