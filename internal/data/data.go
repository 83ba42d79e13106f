// Package data provides deterministic synthetic datasets standing in for
// CIFAR-10 and ImageNet (which cannot be downloaded in this environment).
// Each dataset produces real stochastic minibatch classification gradients:
// the property the DGS algorithms consume. Generation is seeded, so every
// experiment is bit-reproducible.
package data

import (
	"fmt"

	"dgs/internal/tensor"
)

// Dataset is a labelled example source with a train and a test split.
type Dataset interface {
	// NumTrain and NumTest return split sizes.
	NumTrain() int
	NumTest() int
	// Example materialises example i of the given split into x (the
	// flattened input) and returns its label. x must have InputLen elements.
	Example(train bool, i int, x []float32) int
	// InputLen is the flattened input size; InputShape the logical shape
	// (without batch dim); Classes the number of classes.
	InputLen() int
	InputShape() []int
	Classes() int
}

// Batch is a materialised minibatch.
type Batch struct {
	X      *tensor.Tensor
	Labels []int
}

// Loader draws minibatches from a dataset split with its own RNG, so
// concurrent workers sample independently (data-parallel training).
type Loader struct {
	DS        Dataset
	BatchSize int
	rng       *tensor.RNG
	train     bool
}

// NewLoader creates a loader over the train (train=true) or test split.
func NewLoader(ds Dataset, batchSize int, seed uint64, train bool) *Loader {
	if batchSize < 1 {
		panic("data: batch size must be >= 1")
	}
	return &Loader{DS: ds, BatchSize: batchSize, rng: tensor.NewRNG(seed), train: train}
}

// Next samples a uniformly random minibatch (sampling with replacement, the
// standard idealisation for SGD analysis).
func (l *Loader) Next() Batch {
	shape := append([]int{l.BatchSize}, l.DS.InputShape()...)
	x := tensor.New(shape...)
	labels := make([]int, l.BatchSize)
	n := l.DS.NumTrain()
	if !l.train {
		n = l.DS.NumTest()
	}
	ilen := l.DS.InputLen()
	for b := 0; b < l.BatchSize; b++ {
		i := l.rng.Intn(n)
		labels[b] = l.DS.Example(l.train, i, x.Data[b*ilen:(b+1)*ilen])
	}
	return Batch{X: x, Labels: labels}
}

// Evaluate runs the model-supplied predict function over (up to) limit test
// examples in batches and returns mean accuracy. predict receives a batch
// input and must return class predictions.
func Evaluate(ds Dataset, batchSize, limit int, predict func(x *tensor.Tensor) []int) float64 {
	n := ds.NumTest()
	if limit > 0 && limit < n {
		n = limit
	}
	if n == 0 {
		return 0
	}
	correct := 0
	ilen := ds.InputLen()
	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		bs := end - start
		shape := append([]int{bs}, ds.InputShape()...)
		x := tensor.New(shape...)
		labels := make([]int, bs)
		for b := 0; b < bs; b++ {
			labels[b] = ds.Example(false, start+b, x.Data[b*ilen:(b+1)*ilen])
		}
		preds := predict(x)
		if len(preds) != bs {
			panic(fmt.Sprintf("data: predict returned %d preds for %d examples", len(preds), bs))
		}
		for b := 0; b < bs; b++ {
			if preds[b] == labels[b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
