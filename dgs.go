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

import "dgs/internal/trainer"

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
type ModelKind = trainer.ModelKind

// Built-in architectures.
const (
	// ModelResNetS is a scaled-down residual CNN (the ResNet-18 stand-in).
	ModelResNetS = trainer.ModelResNetS
	// ModelCNN is a plain conv-pool stack.
	ModelCNN = trainer.ModelCNN
	// ModelMLP is a two-hidden-layer perceptron for vector datasets.
	ModelMLP = trainer.ModelMLP
)

// DatasetKind selects the training data.
type DatasetKind = trainer.DatasetKind

// Built-in datasets (deterministic synthetic stand-ins; see DESIGN.md for
// the substitution rationale).
const (
	// DatasetCIFARLike is the 10-class 3×16×16 image task.
	DatasetCIFARLike = trainer.DatasetCIFARLike
	// DatasetImageNetLike is the larger 100-class 3×24×24 image task.
	DatasetImageNetLike = trainer.DatasetImageNetLike
	// DatasetMixture is an 8-dimensional 4-class Gaussian mixture
	// (fast; pairs with ModelMLP).
	DatasetMixture = trainer.DatasetMixture
	// DatasetSpirals is the 3-arm spiral problem (pairs with ModelMLP).
	DatasetSpirals = trainer.DatasetSpirals
)

// Config configures a training run; zero values select the paper's
// defaults. It is the run description every dgs process builds from, so
// the fields and their defaults are documented on trainer.Spec.
type Config = trainer.Spec

// Result reports a finished run. Series are (x=epoch, y=value) samples.
type Result = trainer.Result

// Train runs one full training configuration.
func Train(cfg Config) (*Result, error) {
	tc, err := trainer.Build(cfg)
	if err != nil {
		return nil, err
	}
	return trainer.Run(tc)
}
