package trainer

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/stats"
	"dgs/internal/tensor"
)

// quickConfig returns a fast MLP-on-Gaussian-mixture run for tests.
func quickConfig(m Method, workers int) Config {
	ds := data.NewGaussianMixture(8, 4, 2048, 512, 0.35, 11)
	return Config{
		Method:     m,
		Workers:    workers,
		BatchSize:  32,
		Epochs:     4,
		LR:         0.1,
		LRDecayAt:  []int{3},
		Momentum:   0.7,
		KeepRatio:  0.05,
		Seed:       1,
		Dataset:    ds,
		BuildModel: func(rng *tensor.RNG) *nn.Model { return nn.NewMLP(rng, 8, 32, 4) },
		EvalLimit:  256,
	}
}

func TestAllMethodsLearnMixture(t *testing.T) {
	for _, m := range AllMethods {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			cfg := quickConfig(m, 4)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalAccuracy < 0.75 {
				t.Fatalf("%s accuracy %.3f; expected the easy mixture to be learned (>0.75)", m, res.FinalAccuracy)
			}
			if len(res.Loss.Points()) == 0 || len(res.Accuracy.Points()) == 0 {
				t.Fatal("loss/accuracy series must be recorded")
			}
			first := res.Loss.Points()[0].Y
			last := res.Loss.Last().Y
			if last >= first {
				t.Fatalf("%s loss did not decrease: %.3f -> %.3f", m, first, last)
			}
		})
	}
}

func TestMSGDForcesSingleWorker(t *testing.T) {
	cfg := quickConfig(MSGD, 8)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With one worker, staleness must be zero: nobody else pushes between
	// a worker's exchanges.
	if res.MaxStaleness != 0 {
		t.Fatalf("single-node run observed staleness %d", res.MaxStaleness)
	}
}

func TestDGSCompressesTraffic(t *testing.T) {
	asgd, err := Run(quickConfig(ASGD, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(DGS, 4)
	cfg.KeepRatio = 0.01
	dgs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dgs.AvgUpBytes*5 > asgd.AvgUpBytes {
		t.Fatalf("DGS upward bytes %.0f vs ASGD %.0f; expected >5x compression", dgs.AvgUpBytes, asgd.AvgUpBytes)
	}
	if dgs.AvgDownBytes*2 > asgd.AvgDownBytes {
		t.Fatalf("DGS downward bytes %.0f vs ASGD %.0f; expected clear compression", dgs.AvgDownBytes, asgd.AvgDownBytes)
	}
}

func TestSecondaryCompressionReducesDownward(t *testing.T) {
	plain := quickConfig(DGS, 4)
	plain.KeepRatio = 0.01
	r1, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	sec := plain
	sec.Secondary = true
	sec.SecondaryRatio = 0.01
	r2, err := Run(sec)
	if err != nil {
		t.Fatal(err)
	}
	if r2.AvgDownBytes > r1.AvgDownBytes*1.05 {
		t.Fatalf("secondary compression did not shrink downward traffic: %.0f vs %.0f", r2.AvgDownBytes, r1.AvgDownBytes)
	}
	if r2.FinalAccuracy < 0.7 {
		t.Fatalf("secondary compression broke convergence: %.3f", r2.FinalAccuracy)
	}
}

func TestAsynchronyProducesStaleness(t *testing.T) {
	// On a single-core box the mean staleness stays near 1 regardless of
	// worker count (the scheduler interleaves in bursts), so the robust
	// assertions are: a single worker never observes staleness, and a
	// multi-worker run observes some (bursty) staleness.
	multi, err := Run(quickConfig(DGS, 8))
	if err != nil {
		t.Fatal(err)
	}
	if multi.MaxStaleness == 0 {
		t.Fatal("8 concurrent workers observed zero staleness; run was not asynchronous")
	}
	single, err := Run(quickConfig(MSGD, 1))
	if err != nil {
		t.Fatal(err)
	}
	if single.MaxStaleness != 0 {
		t.Fatalf("single worker observed staleness %d", single.MaxStaleness)
	}
}

func TestMemoryAccounting(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := cfg.BuildModel(tensor.NewRNG(1))
	modelBytes := 4 * model.NumParams()
	// Server: M + one v_k per worker.
	if res.ServerStateBytes != modelBytes*(1+4) {
		t.Fatalf("server state %dB, want %dB", res.ServerStateBytes, modelBytes*5)
	}
	// DGS worker: just the SAMomentum velocity.
	if res.WorkerStateBytes != modelBytes {
		t.Fatalf("DGS worker state %dB, want one model (%dB)", res.WorkerStateBytes, modelBytes)
	}
	// DGC keeps two buffers.
	res2, err := Run(quickConfig(DGCAsync, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res2.WorkerStateBytes != 2*modelBytes {
		t.Fatalf("DGC worker state %dB, want two models (%dB)", res2.WorkerStateBytes, 2*modelBytes)
	}
}

func TestLRSchedule(t *testing.T) {
	cfg := Config{LR: 1, LRDecayAt: []int{2, 4}, Epochs: 6}
	lr := newSchedule(&cfg, 60) // 10 iters/epoch
	if got := lr(0); got != 1 {
		t.Fatalf("lr(0) = %v", got)
	}
	if got := lr(19); got != 1 {
		t.Fatalf("lr(19) = %v, still epoch 1", got)
	}
	if got := lr(20); math.Abs(float64(got)-0.1) > 1e-7 {
		t.Fatalf("lr(20) = %v, want 0.1", got)
	}
	if got := lr(45); math.Abs(float64(got)-0.01) > 1e-8 {
		t.Fatalf("lr(45) = %v, want 0.01", got)
	}
}

func TestBadConfigsRejected(t *testing.T) {
	base := quickConfig(DGS, 2)
	cases := []func(*Config){
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.BuildModel = nil },
		func(c *Config) { c.Dataset = nil },
		func(c *Config) { c.KeepRatio = 0 },
		func(c *Config) { c.KeepRatio = 1.5 },
		func(c *Config) { c.Momentum = 0 },
		func(c *Config) { c.Momentum = 1 },
	}
	for i, mut := range cases {
		cfg := base
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// ASGD does not need momentum or keep ratio.
	cfg := quickConfig(ASGD, 2)
	cfg.Momentum = 0
	cfg.KeepRatio = 0
	if _, err := Run(cfg); err != nil {
		t.Errorf("ASGD without momentum/ratio rejected: %v", err)
	}
}

func TestGradClipKeepsTraining(t *testing.T) {
	cfg := quickConfig(DGCAsync, 4)
	cfg.GradClip = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("clipped DGC accuracy %.3f", res.FinalAccuracy)
	}
}

func TestClipGlobalNorm(t *testing.T) {
	g := [][]float32{{3, 0}, {0, 4}} // norm 5
	clipGlobalNorm(g, 2.5)
	var sq float64
	for _, l := range g {
		for _, v := range l {
			sq += float64(v) * float64(v)
		}
	}
	if math.Abs(math.Sqrt(sq)-2.5) > 1e-5 {
		t.Fatalf("clipped norm %v, want 2.5", math.Sqrt(sq))
	}
	// Below the bound: untouched.
	h := [][]float32{{0.1}}
	clipGlobalNorm(h, 10)
	if h[0][0] != 0.1 {
		t.Fatal("clip must not scale small gradients")
	}
}

// End-to-end over real TCP sockets: same run, same learning outcome.
func TestTrainingOverTCP(t *testing.T) {
	cfg := quickConfig(DGS, 3)
	cfg.TCPAddr = "127.0.0.1:0"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.75 {
		t.Fatalf("TCP run accuracy %.3f", res.FinalAccuracy)
	}
	if res.BytesUp == 0 || res.BytesDown == 0 {
		t.Fatal("TCP traffic not recorded")
	}
}

// TestTCPMatchesInProcessAtOneWorker: with one worker the exchange order is
// fixed, so a run over TCP through the served stack is the in-process run —
// for every async method, codec, Eq. 6 setting and pipeline depth the loss
// series is bitwise equal and both directions count the same bytes.
func TestTCPMatchesInProcessAtOneWorker(t *testing.T) {
	for _, m := range []Method{ASGD, GDAsync, DGCAsync, DGS} {
		for _, codec := range []string{"raw", "sbc"} {
			for _, secondary := range []bool{false, true} {
				for _, depth := range []int{1, 2} {
					cfg := quickConfig(m, 1)
					cfg.Epochs, cfg.Codec, cfg.PipelineDepth = 2, codec, depth
					cfg.Secondary, cfg.SecondaryRatio = secondary, 0.05
					name := fmt.Sprintf("%s/%s/secondary=%v/depth=%d", m, codec, secondary, depth)
					local, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s in process: %v", name, err)
					}
					cfg.TCPAddr = "127.0.0.1:0"
					remote, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s over TCP: %v", name, err)
					}
					if !slices.EqualFunc(local.Loss.Points(), remote.Loss.Points(), func(a, b stats.Point) bool {
						return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
					}) {
						t.Errorf("%s: loss series differ between in-process and TCP", name)
					}
					if local.BytesUp != remote.BytesUp || local.BytesDown != remote.BytesDown || local.BytesUp == 0 || local.BytesDown == 0 {
						t.Errorf("%s: bytes up/down %d/%d in process, %d/%d over TCP",
							name, local.BytesUp, local.BytesDown, remote.BytesUp, remote.BytesDown)
					}
				}
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	if MSGD.String() != "MSGD" || Method(99).String() != "Method(99)" {
		t.Fatal("Method.String wrong")
	}
}

func TestWarmupTraining(t *testing.T) {
	cfg := quickConfig(DGS, 4)
	cfg.WarmupFrac = 0.25
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAccuracy < 0.7 {
		t.Fatalf("warm-up run accuracy %.3f", res.FinalAccuracy)
	}
	// Warm-up keeps more coordinates early, so mean upward bytes must
	// exceed the steady-state-only run's.
	plain, err := Run(quickConfig(DGS, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgUpBytes <= plain.AvgUpBytes {
		t.Fatalf("warm-up avg up bytes %.0f should exceed plain %.0f", res.AvgUpBytes, plain.AvgUpBytes)
	}
}

func TestWarmupFracValidated(t *testing.T) {
	cfg := quickConfig(DGS, 2)
	cfg.WarmupFrac = 1.5
	if _, err := Run(cfg); err == nil {
		t.Fatal("warmup fraction > 1 must be rejected")
	}
}

func TestWeightDecayRegularises(t *testing.T) {
	run := func(wd float32) float64 {
		// One worker: the async push schedule is wall-clock-dependent with
		// more, and whether crushing decay drags accuracy under the bar
		// must not hinge on goroutine interleaving. The property under
		// test — the ∇+wd·θ term reaching the update — is per-worker.
		cfg := quickConfig(DGS, 1)
		cfg.WeightDecay = wd
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalAccuracy
	}
	plain := run(0)
	if plain < 0.75 {
		t.Fatalf("baseline accuracy %.3f too low for the comparison", plain)
	}
	// Mild decay must not break learning.
	mild := run(1e-4)
	if mild < 0.7 {
		t.Fatalf("mild decay broke training: %.3f", mild)
	}
	// Crushing decay (effective shrink lr·wd = 0.5/step) must underfit
	// dramatically — proof the ∇+wd·θ term actually reaches the update.
	crushed := run(5)
	if crushed > plain-0.2 {
		t.Fatalf("wd=2 accuracy %.3f; expected collapse well below baseline %.3f", crushed, plain)
	}
}
