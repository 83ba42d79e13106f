package nn

import (
	"math"
	"testing"

	"dgs/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("fc", 4, 3, rng)
	x := smallInput(rng, 5, 4)
	y := l.Forward(x, true)
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("output shape %v, want [5 3]", y.Shape)
	}
	dx := l.Backward(y)
	if !dx.SameShape(x) {
		t.Fatalf("input grad shape %v, want %v", dx.Shape, x.Shape)
	}
}

func TestLinearBias(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("fc", 2, 2, rng)
	l.W.Value.Zero()
	l.B.Value.Data[0] = 1.5
	l.B.Value.Data[1] = -0.5
	x := tensor.New(1, 2)
	y := l.Forward(x, false)
	if y.Data[0] != 1.5 || y.Data[1] != -0.5 {
		t.Fatalf("zero-weight output should equal bias, got %v", y.Data)
	}
}

func TestLinearWrongInputPanics(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear("fc", 4, 3, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input width")
		}
	}()
	l.Forward(tensor.New(2, 5), false)
}

func TestReLU(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := r.Forward(x, true)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("ReLU forward wrong: %v", y.Data)
	}
	g := tensor.FromSlice([]float32{5, 5, 5}, 1, 3)
	dx := r.Backward(g)
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 5 {
		t.Fatalf("ReLU backward wrong: %v", dx.Data)
	}
}

// TestReLUSpecialValues locks ReLU to the comparison v > 0, value by value:
// only strictly positive inputs (denormals and +Inf included) pass, forward
// and backward; NaN, both zeros and every negative map to +0 — not to -0,
// and not to NaN as a plain max(v, 0) would — and pass no gradient. The
// backward pass reads the retained output, so it is checked after both a
// training and an evaluation Forward.
func TestReLUSpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	denorm := math.Float32frombits(1) // smallest positive denormal
	negNaN := math.Float32frombits(0xffc00001)
	in := []float32{nan, negNaN, 0, float32(math.Copysign(0, -1)), denorm, -denorm, inf, -inf, 1.5, -1.5,
		math.MaxFloat32, -math.MaxFloat32}
	grads := []float32{2, nan, inf}
	for _, train := range []bool{true, false} {
		r := NewReLU()
		y := r.Forward(tensor.FromSlice(append([]float32(nil), in...), 1, len(in)), train)
		for _, g := range grads {
			gt := tensor.New(1, len(in))
			gt.Fill(g)
			dx := r.Backward(gt)
			for i, v := range in {
				var wantY, wantDx float32 // +0
				if v > 0 {
					wantY, wantDx = v, g
				}
				if math.Float32bits(y.Data[i]) != math.Float32bits(wantY) {
					t.Errorf("train=%v: ReLU(%v) = %v (bits %#x), want %v", train, v, y.Data[i], math.Float32bits(y.Data[i]), wantY)
				}
				if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx) {
					t.Errorf("train=%v: dReLU(%v)·%v = %v (bits %#x), want %v", train, v, g, dx.Data[i], math.Float32bits(dx.Data[i]), wantDx)
				}
			}
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 12 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	dx := f.Backward(y)
	if !dx.SameShape(x) {
		t.Fatalf("unflatten shape %v", dx.Shape)
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D(2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float32{4, 8, 12, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("pool out[%d]=%v want %v", i, y.Data[i], want[i])
		}
	}
	g := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	dx := p.Backward(g)
	// Gradient must land exactly on the max positions.
	if dx.At(0, 0, 1, 1) != 1 || dx.At(0, 0, 1, 3) != 2 || dx.At(0, 0, 3, 1) != 3 || dx.At(0, 0, 3, 3) != 4 {
		t.Fatalf("pool backward misrouted: %v", dx.Data)
	}
	var sum float32
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("pool backward total %v, want 10", sum)
	}
}

func TestGlobalAvgPool(t *testing.T) {
	p := NewGlobalAvgPool2D()
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := p.Forward(x, true)
	if y.Data[0] != 2.5 || y.Data[1] != 25 {
		t.Fatalf("avg pool wrong: %v", y.Data)
	}
	g := tensor.FromSlice([]float32{4, 8}, 1, 2)
	dx := p.Backward(g)
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("avg pool backward wrong: %v", dx.Data)
	}
}

func TestBatchNormNormalises(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	rng := tensor.NewRNG(4)
	x := tensor.New(8, 1, 4, 4)
	rng.FillNormal(x.Data, 5, 3)
	y := bn.Forward(x, true)
	mean := tensor.Sum(y.Data) / float64(y.Len())
	var vsum float64
	for _, v := range y.Data {
		d := float64(v) - mean
		vsum += d * d
	}
	variance := vsum / float64(y.Len())
	if math.Abs(mean) > 1e-4 {
		t.Fatalf("normalised mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 1e-2 {
		t.Fatalf("normalised variance %v, want ~1", variance)
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2D("bn", 1)
	rng := tensor.NewRNG(5)
	x := tensor.New(16, 1, 2, 2)
	rng.FillNormal(x.Data, 2, 1)
	// Run several training passes so running stats approach batch stats.
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	yTrain := bn.Forward(x, true).Clone() // Forward reuses its output buffer
	yEval := bn.Forward(x, false)
	var maxDiff float64
	for i := range yTrain.Data {
		d := math.Abs(float64(yTrain.Data[i] - yEval.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.1 {
		t.Fatalf("eval output deviates from train output by %v; running stats broken", maxDiff)
	}
}

func TestSoftmaxCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over C classes: loss = ln(C), grad = (1/C - onehot)/B.
	logits := tensor.New(1, 4)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform loss %v, want ln4=%v", loss, math.Log(4))
	}
	for j := 0; j < 4; j++ {
		want := 0.25
		if j == 2 {
			want = -0.75
		}
		if math.Abs(float64(grad.Data[j])-want) > 1e-6 {
			t.Fatalf("grad[%d]=%v want %v", j, grad.Data[j], want)
		}
	}
}

func TestSoftmaxCrossEntropyStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, -1000}, 1, 2)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("gradient NaN under extreme logits")
		}
	}
}

func TestSoftmaxGradSumsToZero(t *testing.T) {
	rng := tensor.NewRNG(6)
	logits := smallInput(rng, 3, 5)
	_, grad := SoftmaxCrossEntropy(logits, []int{0, 4, 2})
	for b := 0; b < 3; b++ {
		s := tensor.Sum(grad.Data[b*5 : (b+1)*5])
		if math.Abs(s) > 1e-6 {
			t.Fatalf("row %d grad sum %v, want 0", b, s)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 0, // pred 0
		0, 1, // pred 1
		5, 9, // pred 1
	}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 0}); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("accuracy %v, want 2/3", got)
	}
}

func TestModelSnapshotLoadRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(7)
	m := NewMLP(rng, 3, 4, 2)
	snap := m.AllocLike()
	m.SnapshotParams(snap)
	// Perturb, then restore.
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 1
		}
	}
	m.LoadParams(snap)
	snap2 := m.AllocLike()
	m.SnapshotParams(snap2)
	for i := range snap {
		for j := range snap[i] {
			if snap[i][j] != snap2[i][j] {
				t.Fatal("load/snapshot round trip failed")
			}
		}
	}
}

func TestModelNumParamsAndSizes(t *testing.T) {
	rng := tensor.NewRNG(8)
	m := NewMLP(rng, 3, 4, 2)
	// fc0: 4*3 + 4, fc1: 2*4 + 2 = 12+4+8+2 = 26
	if got := m.NumParams(); got != 26 {
		t.Fatalf("NumParams = %d, want 26", got)
	}
	sizes := m.LayerSizes()
	want := []int{12, 4, 8, 2}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("LayerSizes = %v, want %v", sizes, want)
		}
	}
}

func TestZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := NewMLP(rng, 3, 2)
	x := smallInput(rng, 2, 3)
	logits := m.Forward(x, true)
	_, g := SoftmaxCrossEntropy(logits, []int{0, 1})
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
		t.Fatal("expected some nonzero gradients after backward")
	}
	m.ZeroGrad()
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("ZeroGrad left residue")
			}
		}
	}
}

func TestResNetSForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(10)
	cfg := DefaultResNetS(10)
	m := NewResNetS(rng, cfg)
	x := smallInput(rng, 2, 3, 16, 16)
	y := m.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("ResNetS output %v, want [2 10]", y.Shape)
	}
	if m.NumParams() < 5000 {
		t.Fatalf("ResNetS suspiciously small: %d params", m.NumParams())
	}
}

func TestResNetSDistinctParamNames(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := NewResNetS(rng, DefaultResNetS(10))
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

// A single SGD step on a tiny problem must reduce the loss: end-to-end sanity
// that forward, loss and backward wire together with the right signs.
func TestTrainingStepReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(12)
	m := NewMLP(rng, 4, 16, 2)
	x := smallInput(rng, 8, 4)
	labels := []int{0, 1, 0, 1, 0, 1, 0, 1}
	before := lossOf(m, x, labels)
	for step := 0; step < 50; step++ {
		m.ZeroGrad()
		logits := m.Forward(x, true)
		_, g := SoftmaxCrossEntropy(logits, labels)
		m.Backward(g)
		for _, p := range m.Params() {
			tensor.Axpy(-0.5, p.Grad.Data, p.Value.Data)
		}
	}
	after := lossOf(m, x, labels)
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
}
