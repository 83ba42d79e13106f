package nn

import (
	"math"
	"testing"

	"dgs/internal/tensor"
)

func TestConv2DEvalModeMatchesTrainMode(t *testing.T) {
	// Both modes run the same path into the same layer-owned output, so
	// the training result is copied out before the second Forward.
	rng := tensor.NewRNG(31)
	c := NewConv2D("c", 2, 3, 3, 1, 1, rng)
	x := smallInput(rng, 2, 2, 6, 6)
	yTrain := c.Forward(x, true).Clone()
	yEval := c.Forward(x, false)
	for i := range yTrain.Data {
		if yTrain.Data[i] != yEval.Data[i] {
			t.Fatalf("train/eval outputs differ at %d", i)
		}
	}
}

func TestConv2DStridedShapes(t *testing.T) {
	rng := tensor.NewRNG(32)
	c := NewConv2D("c", 1, 4, 3, 2, 1, rng)
	x := smallInput(rng, 3, 1, 9, 9)
	y := c.Forward(x, true)
	// ConvOutSize(9,3,2,1) = 5.
	if y.Dim(0) != 3 || y.Dim(1) != 4 || y.Dim(2) != 5 || y.Dim(3) != 5 {
		t.Fatalf("strided conv output %v, want [3 4 5 5]", y.Shape)
	}
	dx := c.Backward(y)
	if !dx.SameShape(x) {
		t.Fatalf("input grad shape %v", dx.Shape)
	}
}

func TestConv2DWrongChannelsPanics(t *testing.T) {
	rng := tensor.NewRNG(33)
	c := NewConv2D("c", 3, 4, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input channels")
		}
	}()
	c.Forward(tensor.New(1, 2, 8, 8), false)
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(34)
	cases := map[string]func(){
		"linear": func() { NewLinear("l", 2, 2, rng).Backward(tensor.New(1, 2)) },
		"conv":   func() { NewConv2D("c", 1, 1, 3, 1, 1, rng).Backward(tensor.New(1, 1, 2, 2)) },
		// An eval Forward overwrites what the training Forward retained.
		"linear after eval": func() {
			l := NewLinear("l", 2, 2, rng)
			l.Forward(tensor.New(1, 2), true)
			l.Forward(tensor.New(1, 2), false)
			l.Backward(tensor.New(1, 2))
		},
		"conv after eval": func() {
			c := NewConv2D("c", 1, 1, 3, 1, 1, rng)
			c.Forward(tensor.New(1, 1, 2, 2), true)
			c.Forward(tensor.New(1, 1, 2, 2), false)
			c.Backward(tensor.New(1, 1, 2, 2))
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward without a preceding Forward(train=true) must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestResidualProjectionShortcut(t *testing.T) {
	rng := tensor.NewRNG(35)
	// Body downsamples 4→8 channels with stride 2; projection shortcut
	// must match so the residual addition is shape-compatible.
	body := NewSequential(
		NewConv2D("b1", 4, 8, 3, 2, 1, rng),
		NewBatchNorm2D("bn", 8),
	)
	short := NewSequential(
		NewConv2D("p", 4, 8, 1, 2, 0, rng),
	)
	r := NewResidual(body, short)
	x := smallInput(rng, 2, 4, 8, 8)
	y := r.Forward(x, true)
	if y.Dim(1) != 8 || y.Dim(2) != 4 {
		t.Fatalf("projection residual output %v", y.Shape)
	}
	dx := r.Backward(y)
	if !dx.SameShape(x) {
		t.Fatalf("residual input grad shape %v", dx.Shape)
	}
	// Params: body conv (w,b), bn (gamma,beta), shortcut conv (w,b).
	if got := len(r.Params()); got != 6 {
		t.Fatalf("param count %d, want 6", got)
	}
}

func TestResidualIdentityGradientSplitting(t *testing.T) {
	// With identity shortcut and a zeroed body, the block is
	// y = relu(0 + x), so for positive x the gradient passes straight
	// through the shortcut path.
	rng := tensor.NewRNG(36)
	body := NewSequential(NewConv2D("b", 1, 1, 3, 1, 1, rng))
	for _, p := range body.Params() {
		p.Value.Zero()
	}
	r := NewResidual(body, nil)
	x := tensor.New(1, 1, 2, 2)
	x.Fill(1)
	y := r.Forward(x, true)
	for i := range y.Data {
		if y.Data[i] != 1 {
			t.Fatalf("identity residual output %v, want 1", y.Data[i])
		}
	}
	g := tensor.New(1, 1, 2, 2)
	g.Fill(2)
	dx := r.Backward(g)
	// Shortcut contributes grad directly; body (zero weights) contributes 0.
	for i := range dx.Data {
		if math.Abs(float64(dx.Data[i]-2)) > 1e-6 {
			t.Fatalf("identity residual grad %v, want 2", dx.Data[i])
		}
	}
}

func TestCNNModelEndToEnd(t *testing.T) {
	rng := tensor.NewRNG(37)
	m := NewCNN(rng, CNNConfig{InC: 3, H: 8, W: 8, Channels: []int{4, 8}, Classes: 5, BatchNorm: true})
	x := smallInput(rng, 2, 3, 8, 8)
	y := m.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 5 {
		t.Fatalf("CNN output %v", y.Shape)
	}
	_, g := SoftmaxCrossEntropy(y, []int{0, 4})
	m.Backward(g)
	nonzero := false
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("CNN backprop produced no gradients")
	}
}

func TestMLPTooFewWidthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for single width")
		}
	}()
	NewMLP(tensor.NewRNG(1), 4)
}

func TestMaxPoolIndivisiblePanics(t *testing.T) {
	p := NewMaxPool2D(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for indivisible input")
		}
	}()
	p.Forward(tensor.New(1, 1, 5, 5), false)
}

func TestBatchNormWrongChannelsPanics(t *testing.T) {
	bn := NewBatchNorm2D("bn", 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong channels")
		}
	}()
	bn.Forward(tensor.New(1, 2, 2, 2), true)
}

func TestSoftmaxBadLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	SoftmaxCrossEntropy(tensor.New(1, 3), []int{7})
}

func TestSnapshotWrongLayerCountPanics(t *testing.T) {
	rng := tensor.NewRNG(38)
	m := NewMLP(rng, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong snapshot shape")
		}
	}()
	m.SnapshotParams(make([][]float32, 1))
}
