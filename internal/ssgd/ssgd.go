// Package ssgd implements synchronous data-parallel training — the setting
// Gradient Dropping and Deep Gradient Compression were originally designed
// for (paper §2–3). Each step, every worker computes a gradient on the
// same model version; sparse contributions are aggregated at a barrier and
// one update is applied everywhere.
//
// The package exists so the repository can demonstrate the paper's
// motivating claim: the sync variants work well, but their downward path
// is a broadcast of aggregated updates that only stays cheap because of
// the barrier — remove the barrier (ASGD) and prior sparsifiers lose the
// compressible downward channel, which is exactly the gap DGS closes.
package ssgd

import (
	"fmt"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/optim"
	"dgs/internal/par"
	"dgs/internal/sparse"
	"dgs/internal/stats"
	"dgs/internal/tensor"
)

// Method selects the synchronous algorithm.
type Method int

// The synchronous methods from the paper's related work.
const (
	// SSGD is synchronous SGD with server-side momentum (paper Eq. 7).
	SSGD Method = iota
	// GD is Gradient Dropping: per-worker Top-k with residuals.
	GD
	// DGC is Deep Gradient Compression: momentum correction + masking.
	DGC
)

// String names the method.
func (m Method) String() string {
	switch m {
	case SSGD:
		return "SSGD"
	case GD:
		return "GD"
	case DGC:
		return "DGC"
	default:
		return fmt.Sprintf("ssgd.Method(%d)", int(m))
	}
}

// Config describes one synchronous run.
type Config struct {
	Method    Method
	Workers   int
	BatchSize int // per worker
	Epochs    int
	LR        float32
	LRDecayAt []int
	Momentum  float32 // server momentum for SSGD, worker momentum for DGC
	KeepRatio float64 // for GD/DGC
	Seed      uint64
	// BuildModel must produce identical models for identical RNGs.
	BuildModel func(rng *tensor.RNG) *nn.Model
	Dataset    data.Dataset
	EvalLimit  int
}

// Result reports a synchronous run.
type Result struct {
	Method        Method
	FinalAccuracy float64
	Loss          *stats.Series
	Accuracy      *stats.Series
	// Steps is the number of synchronous rounds executed.
	Steps int
	// AvgUpBytes is the mean encoded bytes one worker uploads per round;
	// AvgDownBytes the mean broadcast size per worker per round.
	AvgUpBytes, AvgDownBytes float64
}

func (c *Config) validate() error {
	if c.Workers < 1 || c.BatchSize < 1 || c.Epochs < 1 {
		return fmt.Errorf("ssgd: workers/batch/epochs must be positive")
	}
	if c.BuildModel == nil || c.Dataset == nil {
		return fmt.Errorf("ssgd: BuildModel and Dataset are required")
	}
	if c.Method != SSGD && (c.KeepRatio <= 0 || c.KeepRatio > 1) {
		return fmt.Errorf("ssgd: keep ratio %v out of (0,1]", c.KeepRatio)
	}
	if (c.Method == SSGD || c.Method == DGC) && (c.Momentum <= 0 || c.Momentum >= 1) {
		return fmt.Errorf("ssgd: momentum %v out of (0,1)", c.Momentum)
	}
	return nil
}

// Run executes synchronous training.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Identical replicas, one per worker (real parallel gradient compute).
	replicas := make([]*nn.Model, cfg.Workers)
	loaders := make([]*data.Loader, cfg.Workers)
	var workerOpts []optim.WorkerOptimizer
	var sizes []int
	for k := range replicas {
		replicas[k] = cfg.BuildModel(tensor.NewRNG(cfg.Seed))
		loaders[k] = data.NewLoader(cfg.Dataset, cfg.BatchSize, cfg.Seed+uint64(500+k), true)
	}
	sizes = replicas[0].LayerSizes()
	for k := 0; k < cfg.Workers; k++ {
		switch cfg.Method {
		case SSGD:
			workerOpts = append(workerOpts, optim.NewDenseSGD())
		case GD:
			workerOpts = append(workerOpts, optim.NewGradientDropping(sizes, cfg.KeepRatio))
		case DGC:
			workerOpts = append(workerOpts, optim.NewDGC(sizes, cfg.Momentum, cfg.KeepRatio))
		}
	}

	// Server-side momentum buffer (SSGD only).
	velocity := make([][]float32, len(sizes))
	agg := make([][]float32, len(sizes))
	for i, n := range sizes {
		velocity[i] = make([]float32, n)
		agg[i] = make([]float32, n)
	}

	steps := cfg.Epochs * cfg.Dataset.NumTrain() / (cfg.BatchSize * cfg.Workers)
	if steps < 1 {
		steps = 1
	}
	stepsPerEpoch := float64(steps) / float64(cfg.Epochs)

	res := &Result{
		Method:   cfg.Method,
		Loss:     stats.NewSeries(cfg.Method.String() + "-loss"),
		Accuracy: stats.NewSeries(cfg.Method.String() + "-acc"),
		Steps:    steps,
	}

	var upBytes, downBytes int64
	losses := make([]float64, cfg.Workers)
	updates := make([]sparse.Update, cfg.Workers)
	nextEval := 1.0

	for step := 0; step < steps; step++ {
		lr := cfg.LR
		epoch := float64(step) / stepsPerEpoch
		for _, d := range cfg.LRDecayAt {
			if epoch >= float64(d) {
				lr *= 0.1
			}
		}

		// Parallel gradient computation on identical replicas.
		par.Each(cfg.Workers, func(k int) {
			batch := loaders[k].Next()
			m := replicas[k]
			m.ZeroGrad()
			logits := m.Forward(batch.X, true)
			loss, g := nn.SoftmaxCrossEntropy(logits, batch.Labels)
			m.Backward(g)
			losses[k] = loss
			updates[k] = workerOpts[k].Prepare(m.Gradients(), lr)
		})

		// Barrier: aggregate the (sparse) worker contributions, averaging
		// across workers as in data-parallel SGD.
		for i := range agg {
			for j := range agg[i] {
				agg[i][j] = 0
			}
		}
		invN := float32(1) / float32(cfg.Workers)
		for k := 0; k < cfg.Workers; k++ {
			enc := sparse.Encode(&updates[k])
			upBytes += int64(len(enc))
			for ci := range updates[k].Chunks {
				c := &updates[k].Chunks[ci]
				sparse.Scatter(c, agg[c.Layer], invN)
			}
		}

		// Server update: momentum for SSGD, direct application otherwise
		// (GD has no momentum; DGC's momentum lives at the workers).
		if cfg.Method == SSGD {
			for i := range velocity {
				for j := range velocity[i] {
					velocity[i][j] = cfg.Momentum*velocity[i][j] + agg[i][j]
					agg[i][j] = velocity[i][j]
				}
			}
		}
		// Broadcast: every replica applies the same aggregated update.
		// Wire cost is the encoding of the aggregate's nonzeros per worker
		// (dense for SSGD; at most workers×k coordinates for GD/DGC).
		bcast := nonzeroUpdate(agg)
		encDown := sparse.Encode(&bcast)
		downBytes += int64(len(encDown)) * int64(cfg.Workers)
		for k := 0; k < cfg.Workers; k++ {
			params := replicas[k].Params()
			for i := range agg {
				tensor.Axpy(-1, agg[i], params[i].Value.Data)
			}
		}

		meanLoss := 0.0
		for _, l := range losses {
			meanLoss += l
		}
		meanLoss /= float64(cfg.Workers)
		res.Loss.Add(epoch, meanLoss)

		if epoch >= nextEval {
			acc := evaluate(&cfg, replicas[0])
			res.Accuracy.Add(epoch, acc)
			for epoch >= nextEval {
				nextEval++
			}
		}
	}

	res.FinalAccuracy = evaluate(&cfg, replicas[0])
	res.Accuracy.Add(float64(cfg.Epochs), res.FinalAccuracy)
	res.AvgUpBytes = float64(upBytes) / float64(steps*cfg.Workers)
	res.AvgDownBytes = float64(downBytes) / float64(steps*cfg.Workers)
	return res, nil
}

// evaluate measures test accuracy with replica 0.
func evaluate(cfg *Config, model *nn.Model) float64 {
	classes := cfg.Dataset.Classes()
	return data.Evaluate(cfg.Dataset, 64, cfg.EvalLimit, func(x *tensor.Tensor) []int {
		logits := model.Forward(x, false)
		preds := make([]int, x.Dim(0))
		for i := range preds {
			preds[i] = tensor.ArgMax(logits.Data[i*classes : (i+1)*classes])
		}
		return preds
	})
}

// nonzeroUpdate collects the nonzero coordinates of per-layer dense buffers
// into a sparse update (for wire-size accounting of the broadcast).
func nonzeroUpdate(x [][]float32) sparse.Update {
	var u sparse.Update
	for layer, lx := range x {
		var idx []int32
		for j, v := range lx {
			if v != 0 {
				idx = append(idx, int32(j))
			}
		}
		if len(idx) == 0 {
			continue
		}
		u.Chunks = append(u.Chunks, sparse.Gather(layer, lx, idx))
	}
	return u
}
