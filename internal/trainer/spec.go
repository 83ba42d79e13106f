package trainer

import (
	"fmt"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/tensor"
)

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

// Spec describes a training run by name: the task and the settings, with
// zero values selecting the paper's defaults. Build turns it into the
// Config that Run, RunSync and RunWorkerLoop take; the root package
// exports it as dgs.Config.
type Spec struct {
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
	// (DESIGN.md §5, §8).
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
	// MetricsAddr, when set (e.g. "127.0.0.1:9090"), serves the telemetry
	// HTTP endpoint (/metrics in Prometheus text format, /manifest,
	// /debug/pprof) for the duration of the run.
	MetricsAddr string
	// ManifestPath, when set, periodically writes a JSON run manifest
	// (configuration + live metric export) to this file.
	ManifestPath string
}

// Build applies the paper's defaults to s and materialises its dataset and
// model factory. It is a function, not a method of Spec: a method would
// make Config, and every type its fields reach, part of the root package's
// API through dgs.Config.
func Build(s Spec) (Config, error) {
	if s.Workers == 0 {
		s.Workers = 4
	}
	if s.BatchSize == 0 {
		s.BatchSize = 16
	}
	if s.Epochs == 0 {
		s.Epochs = 6
	}
	if s.LR == 0 {
		s.LR = 0.1
	}
	if s.Momentum == 0 {
		s.Momentum = 0.7
	}
	if s.KeepRatio == 0 {
		s.KeepRatio = 0.01
	}
	if s.Secondary && s.SecondaryRatio == 0 {
		s.SecondaryRatio = 0.01
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DataScale == 0 {
		s.DataScale = 1
	}
	if len(s.LRDecayAt) == 0 {
		s.LRDecayAt = []int{s.Epochs * 6 / 10, s.Epochs * 8 / 10}
	}

	ds, err := buildDataset(s)
	if err != nil {
		return Config{}, err
	}
	build, err := modelBuilder(s.Model, ds.InputShape(), ds.Classes())
	if err != nil {
		return Config{}, err
	}
	return Config{
		Method:         s.Method,
		Workers:        s.Workers,
		BatchSize:      s.BatchSize,
		Epochs:         s.Epochs,
		LR:             s.LR,
		LRDecayAt:      s.LRDecayAt,
		Momentum:       s.Momentum,
		KeepRatio:      s.KeepRatio,
		Secondary:      s.Secondary,
		SecondaryRatio: s.SecondaryRatio,
		GradClip:       s.GradClip,
		WeightDecay:    s.WeightDecay,
		Codec:          s.Codec,
		WarmupFrac:     s.WarmupFrac,
		Seed:           s.Seed,
		BuildModel:     build,
		Dataset:        ds,
		EvalLimit:      s.EvalLimit,
		TCPAddr:        s.TCPAddr,
		PipelineDepth:  s.PipelineDepth,
		MetricsAddr:    s.MetricsAddr,
		ManifestPath:   s.ManifestPath,
	}, nil
}

// buildDataset materialises the selected dataset at the requested scale.
func buildDataset(s Spec) (data.Dataset, error) {
	scale := func(n int) int {
		return max(int(float64(n)*s.DataScale), 16)
	}
	switch s.Dataset {
	case DatasetCIFARLike:
		c := data.CIFARLike(s.Seed)
		c.Train, c.Test = scale(c.Train), scale(c.Test)
		return data.NewSyntheticImages(c), nil
	case DatasetImageNetLike:
		c := data.ImageNetLike(s.Seed)
		c.Train, c.Test = scale(c.Train), scale(c.Test)
		return data.NewSyntheticImages(c), nil
	case DatasetMixture:
		return data.NewGaussianMixture(8, 4, scale(2048), scale(512), 0.35, s.Seed), nil
	case DatasetSpirals:
		return data.NewSpirals(3, scale(2048), scale(512), 0.05, s.Seed), nil
	default:
		return nil, fmt.Errorf("trainer: unknown dataset %d", int(s.Dataset))
	}
}

// modelBuilder returns the model factory for the architecture and input.
func modelBuilder(kind ModelKind, inShape []int, classes int) (func(*tensor.RNG) *nn.Model, error) {
	switch kind {
	case ModelResNetS:
		if len(inShape) != 3 {
			return nil, fmt.Errorf("trainer: ResNetS needs image input, got shape %v", inShape)
		}
		cfg := nn.DefaultResNetS(classes)
		cfg.InC = inShape[0]
		return func(rng *tensor.RNG) *nn.Model { return nn.NewResNetS(rng, cfg) }, nil
	case ModelCNN:
		if len(inShape) != 3 {
			return nil, fmt.Errorf("trainer: CNN needs image input, got shape %v", inShape)
		}
		cfg := nn.CNNConfig{InC: inShape[0], Channels: []int{8, 16}, Classes: classes, BatchNorm: true}
		return func(rng *tensor.RNG) *nn.Model { return nn.NewCNN(rng, cfg) }, nil
	case ModelMLP:
		if len(inShape) != 1 {
			return nil, fmt.Errorf("trainer: MLP needs vector input, got shape %v", inShape)
		}
		in := inShape[0]
		return func(rng *tensor.RNG) *nn.Model { return nn.NewMLP(rng, in, 64, 32, classes) }, nil
	default:
		return nil, fmt.Errorf("trainer: unknown model %d", int(kind))
	}
}
