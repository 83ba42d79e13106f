package trainer

import (
	"errors"
	"fmt"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/optim"
	"dgs/internal/par"
	"dgs/internal/sparse"
	"dgs/internal/stats"
	"dgs/internal/tensor"
)

// RunSync runs the method's update rule behind a barrier, the setting
// Gradient Dropping and DGC were designed for (paper §1, §3). Each round
// every one of Workers identical replicas prepares an update on the same
// model, the updates are merged, and every replica applies their average,
// so the replicas never drift apart. MSGD at N workers is synchronous
// momentum SGD: the mean of the replicas' velocities is the velocity of the
// mean gradient, by linearity. GDAsync and DGCAsync run their sparsifiers
// behind the barrier. Upward bytes are each worker's encoded update,
// downward bytes the encoded average sent to every worker, whose support is
// the union of the workers' supports.
//
// There is no server and no exchange, so TCPAddr, PipelineDepth, Secondary,
// a lossy Codec, MetricsAddr and ManifestPath are refused, as are the worker
// loop's gradient shaping (WeightDecay, GradClip, WarmupFrac).
func RunSync(cfg Config) (*Result, error) {
	workers := cfg.Workers
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	cfg.Workers = workers // normalise pins MSGD to one worker; a barrier need not
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("trainer: workers %d < 1", cfg.Workers)
	}
	if cfg.TCPAddr != "" || cfg.PipelineDepth > 1 || cfg.Secondary ||
		(cfg.Codec != "" && cfg.Codec != "raw") || cfg.MetricsAddr != "" || cfg.ManifestPath != "" ||
		cfg.WeightDecay != 0 || cfg.GradClip != 0 || cfg.WarmupFrac != 0 {
		return nil, errors.New("trainer: RunSync takes no exchange, weight decay, clipping or warm-up settings")
	}

	replicas := make([]*nn.Model, cfg.Workers)
	opts := make([]optim.WorkerOptimizer, cfg.Workers)
	loaders := make([]*data.Loader, cfg.Workers)
	ups := make([]sparse.Update, cfg.Workers)
	srcs := make([]*sparse.Update, cfg.Workers)
	for k := range replicas {
		replicas[k] = cfg.BuildModel(tensor.NewRNG(cfg.Seed))
		opts[k] = buildOptimizer(&cfg, replicas[k].LayerSizes())
		loaders[k] = data.NewLoader(cfg.Dataset, cfg.BatchSize, cfg.Seed+uint64(1000+k), true)
		srcs[k] = &ups[k]
	}
	rounds := max(cfg.Epochs*cfg.Dataset.NumTrain()/(cfg.BatchSize*cfg.Workers), 1)
	res := &Result{
		Method:           cfg.Method,
		Loss:             stats.NewSeries(cfg.Method.String() + "-sync-loss"),
		Accuracy:         stats.NewSeries(cfg.Method.String() + "-sync-acc"),
		Iterations:       rounds * cfg.Workers,
		WorkerStateBytes: opts[0].StateBytes(),
	}

	lr := newSchedule(&cfg, rounds)
	losses := make([]float64, cfg.Workers)
	var merger sparse.Merger
	var sum sparse.Update
	var enc []byte
	invN := 1 / float32(cfg.Workers)
	nextEval := float64(cfg.EvalEveryEpochs)
	for r := range rounds {
		stepLR := lr(int64(r))
		par.Each(cfg.Workers, func(k int) {
			m, batch := replicas[k], loaders[k].Next()
			m.ZeroGrad()
			loss, g := nn.SoftmaxCrossEntropy(m.Forward(batch.X, true), batch.Labels)
			m.Backward(g)
			losses[k] = loss
			ups[k] = opts[k].Prepare(m.Gradients(), stepLR)
		})
		meanLoss := 0.0
		for k := range ups {
			enc = sparse.AppendEncode(enc[:0], &ups[k])
			res.BytesUp += int64(len(enc))
			meanLoss += losses[k] / float64(cfg.Workers)
		}
		merger.MergeInto(&sum, srcs)
		enc = sparse.AppendEncode(enc[:0], &sum)
		res.BytesDown += int64(len(enc)) * int64(cfg.Workers)
		for _, m := range replicas {
			params := m.Params()
			for ci := range sum.Chunks {
				c := &sum.Chunks[ci]
				sparse.Scatter(c, params[c.Layer].Value.Data, -invN)
			}
		}

		epoch := float64(r+1) * float64(cfg.Epochs) / float64(rounds)
		res.Loss.Add(epoch, meanLoss)
		if epoch >= nextEval {
			res.Accuracy.Add(epoch, evaluate(&cfg, replicas[0]))
			for epoch >= nextEval {
				nextEval += float64(cfg.EvalEveryEpochs)
			}
		}
	}
	res.AvgUpBytes = float64(res.BytesUp) / float64(res.Iterations)
	res.AvgDownBytes = float64(res.BytesDown) / float64(res.Iterations)
	res.FinalAccuracy = evaluate(&cfg, replicas[0])
	res.Accuracy.Add(float64(cfg.Epochs), res.FinalAccuracy)
	return res, nil
}
