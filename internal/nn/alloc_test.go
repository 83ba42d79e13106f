package nn

import (
	"math"
	"testing"

	"dgs/internal/raceflag"
	"dgs/internal/tensor"
)

// TestConvBackwardSteadyStateAllocs locks the hot-path contract: after the
// first backward pass warms the scratch, Conv2D.Backward allocates nothing.
func TestConvBackwardSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs sync.Pool reuse; alloc counts unreliable")
	}
	rng := tensor.NewRNG(51)
	conv := NewConv2D("c", 8, 8, 3, 1, 1, rng)
	x := tensor.New(2, 8, 12, 12)
	rng.FillNormal(x.Data, 0, 1)
	y := conv.Forward(x, true)
	g := tensor.New(y.Shape...)
	rng.FillNormal(g.Data, 0, 1)
	conv.Backward(g) // warm dcols and the dx buffer
	if allocs := testing.AllocsPerRun(10, func() { conv.Backward(g) }); allocs > 0 {
		t.Fatalf("steady-state conv backward allocates %v objects, want 0", allocs)
	}
}

// TestLinearBackwardSteadyStateAllocs does the same for Linear.
func TestLinearBackwardSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs sync.Pool reuse; alloc counts unreliable")
	}
	rng := tensor.NewRNG(52)
	l := NewLinear("l", 64, 32, rng)
	x := tensor.New(16, 64)
	rng.FillNormal(x.Data, 0, 1)
	y := l.Forward(x, true)
	g := tensor.New(y.Shape...)
	rng.FillNormal(g.Data, 0, 1)
	l.Backward(g)
	if allocs := testing.AllocsPerRun(10, func() { l.Backward(g) }); allocs > 0 {
		t.Fatalf("steady-state linear backward allocates %v objects, want 0", allocs)
	}
}

// TestConvBackwardBatchChange verifies the dx buffer follows shape changes
// (e.g. the dataset's final partial batch).
func TestConvBackwardBatchChange(t *testing.T) {
	rng := tensor.NewRNG(53)
	conv := NewConv2D("c", 2, 3, 3, 1, 1, rng)
	for _, batch := range []int{4, 1, 4} {
		x := tensor.New(batch, 2, 6, 6)
		rng.FillNormal(x.Data, 0, 1)
		y := conv.Forward(x, true)
		g := tensor.New(y.Shape...)
		rng.FillNormal(g.Data, 0, 1)
		dx := conv.Backward(g)
		if dx.Dim(0) != batch || dx.Dim(1) != 2 || dx.Dim(2) != 6 || dx.Dim(3) != 6 {
			t.Fatalf("batch %d: dx shape %v", batch, dx.Shape)
		}
	}
}

// TestTrainStepSteadyStateAllocs locks the Forward half of the buffer
// contract on the two models the end-to-end benchmark trains: once the
// layer buffers are sized, ZeroGrad + Forward(train) + SoftmaxCrossEntropy +
// Backward + Gradients allocates nothing beyond the loss-gradient tensor the
// loss function returns.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs sync.Pool reuse; alloc counts unreliable")
	}
	for i, c := range trainStepCases {
		m, x, labels := trainStepFixture(i)
		trainStep(m, x, labels)
		logits := m.Forward(x, true)
		lossAllocs := testing.AllocsPerRun(10, func() { SoftmaxCrossEntropy(logits, labels) })
		stepAllocs := testing.AllocsPerRun(10, func() { trainStep(m, x, labels) })
		if stepAllocs > lossAllocs {
			t.Errorf("%s: steady-state train step allocates %v objects, the loss gradient alone %v", c.name, stepAllocs, lossAllocs)
		}
	}
}

// TestLayerBuffersFollowShape drives one ResNetS through the shape changes
// a training run produces — a smaller final batch, back to the full batch,
// an evaluation batch of another size in between — and requires every
// training step's logits and parameter gradients to be bit-identical to
// those of a fresh model with the same weights that has seen only that
// batch: reused buffers must never leak a previous shape's contents.
func TestLayerBuffersFollowShape(t *testing.T) {
	cfg := DefaultResNetS(10)
	used := NewResNetS(tensor.NewRNG(54), cfg)
	rng := tensor.NewRNG(55)
	for step, batch := range []int{4, 1, 4, 3, 6} {
		x := tensor.New(batch, cfg.InC, cfg.H, cfg.W)
		rng.FillNormal(x.Data, 0, 1)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = rng.Intn(cfg.Classes)
		}
		if step == 2 {
			used.Forward(tensor.New(5, cfg.InC, cfg.H, cfg.W), false)
		}
		fresh := NewResNetS(tensor.NewRNG(54), cfg)
		used.ZeroGrad()
		got := used.Forward(x, true)
		want := fresh.Forward(x, true)
		if !got.SameShape(want) {
			t.Fatalf("step %d (batch %d): logits shape %v, want %v", step, batch, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("step %d (batch %d): logit %d = %v, fresh model %v", step, batch, i, got.Data[i], want.Data[i])
			}
		}
		_, g := SoftmaxCrossEntropy(got, labels)
		used.Backward(g)
		fresh.Backward(g)
		for li, p := range fresh.Params() {
			for i, w := range p.Grad.Data {
				if v := used.Params()[li].Grad.Data[i]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("step %d (batch %d): %s grad[%d] = %v, fresh model %v", step, batch, p.Name, i, v, w)
				}
			}
		}
	}
}
