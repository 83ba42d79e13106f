// Package dgs is a Go implementation of Dual-Way Gradient Sparsification
// for asynchronous distributed deep learning (Yan et al., ICPP 2020),
// together with the baselines the paper compares against (MSGD, ASGD,
// Gradient Dropping, Deep Gradient Compression) and the full substrate
// needed to run them: a from-scratch neural-network library, synthetic
// image datasets, a model-difference-tracking parameter server, Top-k
// sparse codecs, loopback and TCP transports, and a network simulator for
// bandwidth experiments.
//
// The quickest way in:
//
//	res, err := dgs.Train(dgs.Config{
//	        Method:  dgs.DGS,
//	        Workers: 4,
//	        Model:   dgs.ModelResNetS,
//	        Dataset: dgs.DatasetCIFARLike,
//	})
//	fmt.Println(res.FinalAccuracy)
//
// Every field has a sensible default matching the paper's setup (momentum
// 0.7, top-1% sparsification, step-decay learning rate).
package dgs

import (
	"fmt"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/stats"
	"dgs/internal/tensor"
	"dgs/internal/trainer"
)

// Method selects the distributed training algorithm. It is the trainer's
// own enum, so no conversion sits between the two; String returns the
// paper's name for a method.
type Method = trainer.Method

// The five methods evaluated in the paper (Table 5).
const (
	// MSGD is single-node momentum SGD — the accuracy baseline.
	MSGD = trainer.MSGD
	// ASGD is vanilla asynchronous SGD: dense gradients up, whole model
	// down.
	ASGD = trainer.ASGD
	// GDAsync is Gradient Dropping made asynchronous via model-difference
	// downward compression.
	GDAsync = trainer.GDAsync
	// DGCAsync is Deep Gradient Compression (momentum correction + factor
	// masking) over the same dual-way path.
	DGCAsync = trainer.DGCAsync
	// DGS is dual-way gradient sparsification with SAMomentum — the
	// paper's contribution.
	DGS = trainer.DGS
)

// Methods lists all five methods in the paper's comparison order.
var Methods = []Method{MSGD, ASGD, GDAsync, DGCAsync, DGS}

// ModelKind selects the network architecture.
type ModelKind int

// Built-in architectures.
const (
	// ModelResNetS is a scaled-down residual CNN (the ResNet-18 stand-in).
	ModelResNetS ModelKind = iota
	// ModelCNN is a plain conv-pool stack.
	ModelCNN
	// ModelMLP is a two-hidden-layer perceptron for vector datasets.
	ModelMLP
)

// DatasetKind selects the training data.
type DatasetKind int

// Built-in datasets (deterministic synthetic stand-ins; see DESIGN.md for
// the substitution rationale).
const (
	// DatasetCIFARLike is the 10-class 3×16×16 image task.
	DatasetCIFARLike DatasetKind = iota
	// DatasetImageNetLike is the larger 100-class 3×24×24 image task.
	DatasetImageNetLike
	// DatasetMixture is an 8-dimensional 4-class Gaussian mixture
	// (fast; pairs with ModelMLP).
	DatasetMixture
	// DatasetSpirals is the 3-arm spiral problem (pairs with ModelMLP).
	DatasetSpirals
)

// Config configures a training run. Zero values select paper defaults.
type Config struct {
	// Method is the algorithm to run (default MSGD).
	Method Method
	// Workers is the number of asynchronous workers (default 4; MSGD
	// always runs 1).
	Workers int
	// Model and Dataset select the task (defaults: ResNetS on CIFAR-like).
	Model   ModelKind
	Dataset DatasetKind
	// BatchSize is the per-worker minibatch size (default 16).
	BatchSize int
	// Epochs is the number of passes over the training data (default 6).
	Epochs int
	// LR is the initial learning rate (default 0.1).
	LR float32
	// LRDecayAt lists epochs where LR decays ×0.1 (default: 60% and 80%
	// of Epochs, mirroring the paper's 30/40-of-50 schedule).
	LRDecayAt []int
	// Momentum is the momentum coefficient m (default 0.7, the paper's
	// value).
	Momentum float32
	// KeepRatio is the Top-k keep fraction R (default 0.01 = top 1%).
	KeepRatio float64
	// Secondary enables downward secondary compression at SecondaryRatio
	// (default ratio 0.01 when enabled).
	Secondary      bool
	SecondaryRatio float64
	// GradClip, when positive, clips gradients to this global L2 norm.
	GradClip float32
	// WeightDecay, when positive, adds L2 regularisation (∇ + wd·θ).
	WeightDecay float32
	// Codec selects the wire compression backend for both directions of
	// the exchange: "raw" (exact float32 values, the default) or "sbc"
	// (sparse binary compression: per-sign mean magnitudes + Rice-coded
	// indices). SBC folds its projection error into residual state — the
	// worker into its optimizer state or error memory, the server into
	// v_k — so each error is deferred and delivered once, never lost
	// (DESIGN.md §7, §14).
	Codec string
	// WarmupFrac, when positive, enables DGC-style warm-up over that
	// fraction of training (learning-rate ramp + sparsity annealing).
	WarmupFrac float64
	// Seed makes runs reproducible (default 1).
	Seed uint64
	// DataScale shrinks (<1) or grows (>1) the dataset; useful to trade
	// fidelity for speed. Default 1.
	DataScale float64
	// EvalLimit caps test examples per evaluation (0 = all).
	EvalLimit int
	// TCPAddr, when set (e.g. "127.0.0.1:0"), runs worker↔server exchanges
	// over real TCP sockets instead of in-process calls.
	TCPAddr string
	// PipelineDepth bounds each worker's in-flight exchanges. 0 or 1 keeps
	// the synchronous loop (the default, identical to paper baselines);
	// values > 1 overlap communication with the next steps' compute,
	// trading at most PipelineDepth−1 extra steps of staleness for hidden
	// round trips.
	PipelineDepth int
	// Shards, when > 1, splits the parameter server's layers across that
	// many independently locked shards (the classic PS layout). In one
	// process this buys little speed: a single server already runs different
	// workers' gathers side by side (DESIGN.md §13).
	Shards int
	// MetricsAddr, when set (e.g. "127.0.0.1:9090"), serves the telemetry
	// HTTP endpoint (/metrics in Prometheus text format, /manifest,
	// /debug/pprof) for the duration of the run.
	MetricsAddr string
	// ManifestPath, when set, periodically writes a JSON run manifest
	// (configuration + live metric export) to this file.
	ManifestPath string
}

// Result reports a finished run. Series are (x=epoch, y=value) samples.
type Result struct {
	// Method is the algorithm that ran.
	Method Method
	// FinalAccuracy is the top-1 test accuracy after training.
	FinalAccuracy float64
	// Loss and Accuracy are the learning curves.
	Loss, Accuracy *stats.Series
	// Iterations is the number of pushes processed by the server.
	Iterations int
	// BytesUp and BytesDown total the wire traffic; AvgUpBytes and
	// AvgDownBytes are per-iteration means.
	BytesUp, BytesDown       int64
	AvgUpBytes, AvgDownBytes float64
	// MeanStaleness and MaxStaleness summarise the asynchrony the server
	// observed.
	MeanStaleness float64
	MaxStaleness  uint64
	// ServerStateBytes and WorkerStateBytes report memory use (§5.6.2).
	ServerStateBytes, WorkerStateBytes int
	// ComputePerIter is the measured mean seconds per forward+backward.
	ComputePerIter float64
}

// Train runs one full training configuration.
func Train(cfg Config) (*Result, error) {
	tc, err := buildTrainerConfig(cfg)
	if err != nil {
		return nil, err
	}
	res, err := trainer.Run(*tc)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Method:           cfg.Method,
		FinalAccuracy:    res.FinalAccuracy,
		Loss:             res.Loss,
		Accuracy:         res.Accuracy,
		Iterations:       res.Iterations,
		BytesUp:          res.BytesUp,
		BytesDown:        res.BytesDown,
		AvgUpBytes:       res.AvgUpBytes,
		AvgDownBytes:     res.AvgDownBytes,
		MaxStaleness:     res.Server.MaxStaleness,
		ServerStateBytes: res.ServerStateBytes,
		WorkerStateBytes: res.WorkerStateBytes,
		ComputePerIter:   res.ComputePerIter,
	}
	if res.Server.Pushes > 0 {
		out.MeanStaleness = float64(res.Server.StalenessSum) / float64(res.Server.Pushes)
	}
	return out, nil
}

// buildTrainerConfig applies defaults and maps the public config onto the
// internal trainer.
func buildTrainerConfig(cfg Config) (*trainer.Config, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 6
	}
	if cfg.LR == 0 {
		cfg.LR = 0.1
	}
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.7
	}
	if cfg.KeepRatio == 0 {
		cfg.KeepRatio = 0.01
	}
	if cfg.Secondary && cfg.SecondaryRatio == 0 {
		cfg.SecondaryRatio = 0.01
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DataScale == 0 {
		cfg.DataScale = 1
	}
	if len(cfg.LRDecayAt) == 0 {
		cfg.LRDecayAt = []int{cfg.Epochs * 6 / 10, cfg.Epochs * 8 / 10}
	}

	ds, inShape, classes, err := buildDataset(cfg)
	if err != nil {
		return nil, err
	}
	build, err := modelBuilder(cfg.Model, inShape, classes)
	if err != nil {
		return nil, err
	}
	return &trainer.Config{
		Method:         cfg.Method,
		Workers:        cfg.Workers,
		BatchSize:      cfg.BatchSize,
		Epochs:         cfg.Epochs,
		LR:             cfg.LR,
		LRDecayAt:      cfg.LRDecayAt,
		Momentum:       cfg.Momentum,
		KeepRatio:      cfg.KeepRatio,
		Secondary:      cfg.Secondary,
		SecondaryRatio: cfg.SecondaryRatio,
		GradClip:       cfg.GradClip,
		WeightDecay:    cfg.WeightDecay,
		Codec:          cfg.Codec,
		WarmupFrac:     cfg.WarmupFrac,
		Seed:           cfg.Seed,
		BuildModel:     build,
		Dataset:        ds,
		EvalLimit:      cfg.EvalLimit,
		TCPAddr:        cfg.TCPAddr,
		PipelineDepth:  cfg.PipelineDepth,
		Shards:         cfg.Shards,
		MetricsAddr:    cfg.MetricsAddr,
		ManifestPath:   cfg.ManifestPath,
	}, nil
}

// buildDataset materialises the selected dataset at the requested scale.
func buildDataset(cfg Config) (data.Dataset, []int, int, error) {
	scale := func(n int) int {
		s := int(float64(n) * cfg.DataScale)
		if s < 16 {
			s = 16
		}
		return s
	}
	switch cfg.Dataset {
	case DatasetCIFARLike:
		c := data.CIFARLike(cfg.Seed)
		c.Train, c.Test = scale(c.Train), scale(c.Test)
		ds := data.NewSyntheticImages(c)
		return ds, ds.InputShape(), ds.Classes(), nil
	case DatasetImageNetLike:
		c := data.ImageNetLike(cfg.Seed)
		c.Train, c.Test = scale(c.Train), scale(c.Test)
		ds := data.NewSyntheticImages(c)
		return ds, ds.InputShape(), ds.Classes(), nil
	case DatasetMixture:
		ds := data.NewGaussianMixture(8, 4, scale(2048), scale(512), 0.35, cfg.Seed)
		return ds, ds.InputShape(), ds.Classes(), nil
	case DatasetSpirals:
		ds := data.NewSpirals(3, scale(2048), scale(512), 0.05, cfg.Seed)
		return ds, ds.InputShape(), ds.Classes(), nil
	default:
		return nil, nil, 0, fmt.Errorf("dgs: unknown dataset %d", int(cfg.Dataset))
	}
}

// modelBuilder returns the model factory for the architecture and input.
func modelBuilder(kind ModelKind, inShape []int, classes int) (func(*tensor.RNG) *nn.Model, error) {
	switch kind {
	case ModelResNetS:
		if len(inShape) != 3 {
			return nil, fmt.Errorf("dgs: ResNetS needs image input, got shape %v", inShape)
		}
		cfg := nn.ResNetSConfig{
			InC: inShape[0], H: inShape[1], W: inShape[2],
			StageChannels: []int{8, 16, 32}, Blocks: 1, Classes: classes,
		}
		return func(rng *tensor.RNG) *nn.Model { return nn.NewResNetS(rng, cfg) }, nil
	case ModelCNN:
		if len(inShape) != 3 {
			return nil, fmt.Errorf("dgs: CNN needs image input, got shape %v", inShape)
		}
		cfg := nn.CNNConfig{
			InC: inShape[0], H: inShape[1], W: inShape[2],
			Channels: []int{8, 16}, Classes: classes, BatchNorm: true,
		}
		return func(rng *tensor.RNG) *nn.Model { return nn.NewCNN(rng, cfg) }, nil
	case ModelMLP:
		if len(inShape) != 1 {
			return nil, fmt.Errorf("dgs: MLP needs vector input, got shape %v", inShape)
		}
		in := inShape[0]
		return func(rng *tensor.RNG) *nn.Model { return nn.NewMLP(rng, in, 64, 32, classes) }, nil
	default:
		return nil, fmt.Errorf("dgs: unknown model %d", int(kind))
	}
}
