package nn

import (
	"math"
	"testing"

	"dgs/internal/tensor"
)

// lossOf runs a forward pass and returns the scalar loss.
func lossOf(m *Model, x *tensor.Tensor, labels []int) float64 {
	logits := m.Forward(x, false)
	loss, _ := SoftmaxCrossEntropy(logits, labels)
	return loss
}

// checkGradients verifies backprop against central finite differences for
// every parameter of the model. eps and tol are chosen for float32 models.
func checkGradients(t *testing.T, m *Model, x *tensor.Tensor, labels []int) {
	t.Helper()
	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, g := SoftmaxCrossEntropy(logits, labels)
	m.Backward(g)

	const eps = 1e-2
	for _, p := range m.Params() {
		// Check a subset of coordinates for large tensors to keep runtime sane.
		stride := 1
		if p.Value.Len() > 64 {
			stride = p.Value.Len() / 64
		}
		for i := 0; i < p.Value.Len(); i += stride {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossOf(m, x, labels)
			p.Value.Data[i] = orig - eps
			lm := lossOf(m, x, labels)
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(p.Grad.Data[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.15 {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func smallInput(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = -1 + 2*rng.Float32()
	}
	return x
}

func TestGradientsLinearMLP(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewMLP(rng, 6, 5, 3)
	x := smallInput(rng, 4, 6)
	checkGradients(t, m, x, []int{0, 1, 2, 1})
}

func TestGradientsConvNet(t *testing.T) {
	// No MaxPool or ReLU here: their non-differentiable points switch under
	// finite-difference probes, making numeric gradients unreliable. MaxPool
	// is verified exactly in TestMaxPoolForwardBackward; ReLU's gradient is
	// covered by the (low-activation-count) MLP gradcheck and TestReLU.
	rng := tensor.NewRNG(2)
	m := NewModel(NewSequential(
		NewConv2D("conv", 2, 3, 3, 1, 1, rng),
		NewGlobalAvgPool2D(),
		NewLinear("head", 3, 3, rng),
	))
	x := smallInput(rng, 2, 2, 8, 8)
	checkGradients(t, m, x, []int{0, 2})
}

func TestGradientsStridedConv(t *testing.T) {
	rng := tensor.NewRNG(21)
	m := NewModel(NewSequential(
		NewConv2D("conv", 1, 2, 3, 2, 1, rng),
		NewGlobalAvgPool2D(),
		NewLinear("head", 2, 2, rng),
	))
	x := smallInput(rng, 2, 1, 7, 7)
	checkGradients(t, m, x, []int{1, 0})
}

// TestGradientsDownsamplingConvsBatch checks the two downsampling
// convolutions of a ResNetS stage — the stride-2 3×3 and the stride-2 1×1
// projection — at batch > 1 on a non-square input, each behind a stride-1
// conv so that the first conv's parameter gradients also exercise the
// second's input gradient (the batch-wide dcols GEMM and the strided
// Col2Im).
func TestGradientsDownsamplingConvsBatch(t *testing.T) {
	for name, down := range map[string]func(rng *tensor.RNG) *Conv2D{
		"3x3_stride2": func(rng *tensor.RNG) *Conv2D { return NewConv2D("down", 2, 3, 3, 2, 1, rng) },
		"1x1_stride2": func(rng *tensor.RNG) *Conv2D { return NewConv2D("down", 2, 3, 1, 2, 0, rng) },
	} {
		t.Run(name, func(t *testing.T) {
			rng := tensor.NewRNG(22)
			m := NewModel(NewSequential(
				NewConv2D("first", 1, 2, 3, 1, 1, rng),
				down(rng),
				NewGlobalAvgPool2D(),
				NewLinear("head", 3, 2, rng),
			))
			x := smallInput(rng, 3, 1, 6, 9)
			checkGradients(t, m, x, []int{1, 0, 1})
		})
	}
}

func TestGradientsConvNetWithBatchNorm(t *testing.T) {
	// BatchNorm in train mode uses batch statistics; the finite-difference
	// loss must be evaluated in train mode too for gradients to match, so
	// this test uses a custom loss probe.
	rng := tensor.NewRNG(3)
	m := NewModel(NewSequential(
		NewConv2D("conv00", 1, 2, 3, 1, 1, rng),
		NewBatchNorm2D("bn", 2),
		NewGlobalAvgPool2D(),
		NewLinear("head", 2, 2, rng),
	))
	x := smallInput(rng, 3, 1, 4, 4)
	labels := []int{0, 1, 0}

	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, g := SoftmaxCrossEntropy(logits, labels)
	m.Backward(g)

	trainLoss := func() float64 {
		logits := m.Forward(x, true)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	const eps = 1e-2
	for _, p := range m.Params() {
		for i := 0; i < p.Value.Len(); i++ {
			orig := p.Value.Data[i]
			// Save the gradient before probing (Forward(train) mutates caches
			// and running stats but not grads).
			analytic := float64(p.Grad.Data[i])
			p.Value.Data[i] = orig + eps
			lp := trainLoss()
			p.Value.Data[i] = orig - eps
			lm := trainLoss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.2 {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestGradientsResNetS(t *testing.T) {
	if testing.Short() {
		t.Skip("gradcheck on ResNetS is slow")
	}
	rng := tensor.NewRNG(4)
	cfg := ResNetSConfig{InC: 1, StageChannels: []int{2, 3}, Blocks: 1, Classes: 2}
	m := NewResNetS(rng, cfg)
	x := smallInput(rng, 2, 1, 8, 8)
	labels := []int{0, 1}

	m.ZeroGrad()
	logits := m.Forward(x, true)
	_, g := SoftmaxCrossEntropy(logits, labels)
	m.Backward(g)

	trainLoss := func() float64 {
		logits := m.Forward(x, true)
		l, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	const eps = 1e-2
	for _, p := range m.Params() {
		stride := 1
		if p.Value.Len() > 32 {
			stride = p.Value.Len() / 32
		}
		for i := 0; i < p.Value.Len(); i += stride {
			orig := p.Value.Data[i]
			analytic := float64(p.Grad.Data[i])
			p.Value.Data[i] = orig + eps
			lp := trainLoss()
			p.Value.Data[i] = orig - eps
			lm := trainLoss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			diff := math.Abs(numeric - analytic)
			scale := math.Max(2e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 0.25 {
				t.Errorf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}
