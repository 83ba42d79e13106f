package optim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// applyUpdate scatters an update into dense per-layer buffers.
func applyUpdate(u sparse.Update, dst [][]float32) {
	for i := range u.Chunks {
		sparse.Scatter(&u.Chunks[i], dst[u.Chunks[i].Layer], 1)
	}
}

func TestDenseSGDSendsScaledGradient(t *testing.T) {
	o := NewDenseSGD()
	grads := [][]float32{{1, -2}, {3}}
	u := o.Prepare(grads, 0.5)
	got := [][]float32{make([]float32, 2), make([]float32, 1)}
	applyUpdate(u, got)
	if got[0][0] != 0.5 || got[0][1] != -1 || got[1][0] != 1.5 {
		t.Fatalf("DenseSGD update wrong: %v", got)
	}
	// Caller's gradients must be untouched.
	if grads[0][0] != 1 {
		t.Fatal("Prepare must not modify input gradients")
	}
}

func TestDenseMomentumRecurrence(t *testing.T) {
	o := NewDenseMomentum([]int{1}, 0.9)
	lr := float32(0.1)
	// Step 1: u = 0.9*0 + 0.1*1 = 0.1
	u1 := o.Prepare([][]float32{{1}}, lr)
	if v := u1.Chunks[0].Val[0]; math.Abs(float64(v)-0.1) > 1e-7 {
		t.Fatalf("step1 u = %v, want 0.1", v)
	}
	// Step 2: u = 0.9*0.1 + 0.1*2 = 0.29
	u2 := o.Prepare([][]float32{{2}}, lr)
	if v := u2.Chunks[0].Val[0]; math.Abs(float64(v)-0.29) > 1e-6 {
		t.Fatalf("step2 u = %v, want 0.29", v)
	}
}

func TestGradientDroppingSelectsTop(t *testing.T) {
	o := NewGradientDropping([]int{4}, 0.25) // k=1
	u := o.Prepare([][]float32{{0.1, -9, 0.2, 0.3}}, 1)
	if u.NNZ() != 1 || u.Chunks[0].Idx[0] != 1 || u.Chunks[0].Val[0] != -9 {
		t.Fatalf("GD should send only the top element, got %+v", u)
	}
	// The sent coordinate is cleared; the rest accumulates.
	u2 := o.Prepare([][]float32{{0.1, 0, 0.2, 0.3}}, 1)
	// Residual now {0.2, 0, 0.4, 0.6} -> top is index 3 (0.6).
	if u2.Chunks[0].Idx[0] != 3 || math.Abs(float64(u2.Chunks[0].Val[0])-0.6) > 1e-6 {
		t.Fatalf("GD residual accumulation wrong: %+v", u2)
	}
}

// Conservation: over any gradient sequence, sent totals plus the residual
// equal the total scaled gradient mass per coordinate — gradient dropping
// delays information but never loses it.
func TestGradientDroppingConservation(t *testing.T) {
	f := func(seed int64, stepsRaw uint8) bool {
		rng := tensor.NewRNG(uint64(seed))
		const n = 64
		steps := int(stepsRaw)%20 + 1
		o := NewGradientDropping([]int{n}, 0.1)
		lr := float32(0.05)
		totalIn := make([]float64, n)
		totalSent := make([]float64, n)
		g := make([]float32, n)
		for s := 0; s < steps; s++ {
			rng.FillNormal(g, 0, 1)
			for j, v := range g {
				totalIn[j] += float64(lr * v)
			}
			u := o.Prepare([][]float32{g}, lr)
			for i := range u.Chunks {
				c := &u.Chunks[i]
				for j, idx := range c.Idx {
					totalSent[idx] += float64(c.Val[j])
				}
			}
		}
		for j := 0; j < n; j++ {
			if math.Abs(totalIn[j]-(totalSent[j]+float64(o.r[0][j]))) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDGCMasksMomentumAtSentCoords(t *testing.T) {
	o := NewDGC([]int{4}, 0.7, 0.25)
	u := o.Prepare([][]float32{{10, 0.1, 0.1, 0.1}}, 1)
	if u.Chunks[0].Idx[0] != 0 {
		t.Fatalf("expected coord 0 sent, got %+v", u)
	}
	if o.v[0][0] != 0 || o.u[0][0] != 0 {
		t.Fatal("DGC must clear v and u at sent coordinates (factor masking)")
	}
	if o.v[0][1] == 0 || o.u[0][1] == 0 {
		t.Fatal("unsent coordinates must keep their accumulation")
	}
}

func TestDGCMomentumCorrection(t *testing.T) {
	// v accumulates the velocity, not raw gradients: after 2 steps with
	// constant gradient g and no sends of coord 1,
	// u1=ηg, v1=ηg; u2=m·ηg+ηg, v2=ηg+(m+1)ηg = (m+2)ηg.
	o := NewDGC([]int{2}, 0.5, 0.5) // k=1, coord 0 dominates
	lr := float32(1)
	o.Prepare([][]float32{{100, 1}}, lr)
	o.Prepare([][]float32{{100, 1}}, lr)
	want := float64(0.5 + 2) // (m+2)·η·g with η=g=1
	if got := float64(o.v[0][1]); math.Abs(got-want) > 1e-6 {
		t.Fatalf("DGC v[1] = %v, want %v", got, want)
	}
}

func TestSAMomentumRejectsBadM(t *testing.T) {
	for _, m := range []float32{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("m=%v must panic", m)
				}
			}()
			NewSAMomentum([]int{4}, m, 0.25)
		}()
	}
}

// Paper Eq. 16: a coordinate silent for T steps then sent transmits exactly
// m·u_c + η·Σ∇ (here u_c = 0 since it never fired before).
func TestSAMomentumTelescoping(t *testing.T) {
	const m = 0.7
	o := NewSAMomentum([]int{2}, m, 0.5) // k=1 per step
	lr := float32(0.1)
	gradSeq := []float32{0.3, -0.2, 0.5, 0.1}
	var sum float64
	// Coordinate 0 gets a huge gradient every step so it is always the one
	// sent; coordinate 1 accumulates silently.
	for _, g := range gradSeq[:3] {
		u := o.Prepare([][]float32{{100, g}}, lr)
		if u.Chunks[0].Idx[0] != 0 {
			t.Fatalf("expected coord 0 sent during silent phase")
		}
		sum += float64(lr * g)
	}
	// Final step: give coordinate 1 a gradient and silence coordinate 0 by
	// sending a tiny one; coordinate 1's velocity must now dominate... to
	// guarantee it fires, give coordinate 0 a negative of its retained
	// velocity. Simpler: use a large final gradient on coordinate 1.
	big := gradSeq[3] + 1000
	u := o.Prepare([][]float32{{0, big}}, lr)
	sum += float64(lr * big)
	if u.Chunks[0].Idx[0] != 1 {
		t.Fatalf("expected coord 1 to fire on final step, got %+v", u)
	}
	got := float64(u.Chunks[0].Val[0])
	if math.Abs(got-sum) > 1e-5*(1+math.Abs(sum)) {
		t.Fatalf("telescoped velocity %v, want η·Σ∇ = %v", got, sum)
	}
}

// With keepRatio=1 every coordinate is sent every step (T=1), and the paper
// says SAMomentum degenerates to dense momentum exactly.
func TestSAMomentumEqualsDenseMomentumWhenDense(t *testing.T) {
	sa := NewSAMomentum([]int{8}, 0.7, 1.0)
	dm := NewDenseMomentum([]int{8}, 0.7)
	rng := tensor.NewRNG(3)
	g := make([]float32, 8)
	for step := 0; step < 10; step++ {
		rng.FillNormal(g, 0, 1)
		a := sa.Prepare([][]float32{g}, 0.1)
		b := dm.Prepare([][]float32{g}, 0.1)
		av := make([]float32, 8)
		bv := make([]float32, 8)
		applyUpdate(a, [][]float32{av})
		applyUpdate(b, [][]float32{bv})
		for j := range av {
			if math.Abs(float64(av[j]-bv[j])) > 1e-6 {
				t.Fatalf("step %d coord %d: SA %v vs dense %v", step, j, av[j], bv[j])
			}
		}
	}
}

// Momentum disappearing (paper §4.3.1): naive sparse momentum scales the
// accumulated contribution of a silent coordinate by m^T (vanishing), while
// SAMomentum keeps it at full strength. This demonstrates Eq. 12 vs Eq. 16.
func TestMomentumDisappearingDemonstration(t *testing.T) {
	const m, lr, g, T = 0.7, 1.0, 1.0, 10

	// Naive sparse momentum (Eq. 9): u = m·u + sparsify(r); with the
	// coordinate silent, velocity contribution from step 1's gradient after
	// T steps is m^T·ηg — compute the velocity a never-sent coordinate
	// would inject when finally flushed under the naive rule: the residual
	// accumulates ηg per step (no momentum at all, Eq. 13).
	naive := float64(T * lr * g) // plain sum: the momentum factor vanished

	// SAMomentum: after T silent steps the transmitted value is
	// η·Σ∇ = T·ηg as well, but the *velocity retained for the future* is
	// that same magnitude (momentum continues compounding), whereas the
	// naive rule restarts from zero after flushing.
	o := NewSAMomentum([]int{2}, m, 0.5)
	for step := 0; step < T; step++ {
		o.Prepare([][]float32{{100, g}}, lr)
	}
	// Velocity of the silent coordinate, pre-scaled for the next step:
	// equals (1/m)·(m·u + ηΣ∇): strictly larger than the naive flushed sum,
	// showing history is preserved and amplified rather than truncated.
	vel := float64(o.Velocity()[0][1])
	if vel <= naive {
		t.Fatalf("SAMomentum velocity %v should exceed naive accumulation %v", vel, naive)
	}
	if vel > naive/m+1e-6 {
		t.Fatalf("SAMomentum velocity %v exceeds (1/m)·Σ = %v; rescale applied more than once?", vel, naive/m)
	}
}

func TestStateBytes(t *testing.T) {
	sizes := []int{10, 20}
	if got := NewDenseSGD().StateBytes(); got != 0 {
		t.Fatalf("DenseSGD state = %d, want 0", got)
	}
	if got := NewDenseMomentum(sizes, 0.7).StateBytes(); got != 120 {
		t.Fatalf("DenseMomentum state = %d, want 120", got)
	}
	if got := NewGradientDropping(sizes, 0.01).StateBytes(); got != 120 {
		t.Fatalf("GD state = %d, want 120", got)
	}
	if got := NewDGC(sizes, 0.7, 0.01).StateBytes(); got != 240 {
		t.Fatalf("DGC state = %d, want 240 (u and v)", got)
	}
	if got := NewSAMomentum(sizes, 0.7, 0.01).StateBytes(); got != 120 {
		t.Fatalf("SAMomentum state = %d, want 120", got)
	}
}

// methodName labels an optimizer in test output by the paper's name for
// its method.
func methodName(o WorkerOptimizer) string {
	switch o.(type) {
	case *DenseSGD:
		return "ASGD"
	case *DenseMomentum:
		return "MSGD"
	case *GradientDropping:
		return "GD-async"
	case *DGC:
		return "DGC-async"
	case *SAMomentum:
		return "DGS"
	}
	return fmt.Sprintf("%T", o)
}

// All sparsifying optimizers must emit structurally valid updates.
func TestUpdatesValidate(t *testing.T) {
	sizes := []int{100, 7, 33}
	rng := tensor.NewRNG(9)
	opts := []WorkerOptimizer{
		NewDenseSGD(),
		NewDenseMomentum(sizes, 0.7),
		NewGradientDropping(sizes, 0.05),
		NewDGC(sizes, 0.7, 0.05),
		NewSAMomentum(sizes, 0.7, 0.05),
	}
	grads := [][]float32{make([]float32, 100), make([]float32, 7), make([]float32, 33)}
	for step := 0; step < 5; step++ {
		for _, g := range grads {
			rng.FillNormal(g, 0, 1)
		}
		for _, o := range opts {
			u := o.Prepare(grads, 0.1)
			if err := u.Validate(sizes); err != nil {
				t.Fatalf("%s step %d: %v", methodName(o), step, err)
			}
		}
	}
}

func TestWarmupSchedules(t *testing.T) {
	// LR ramps linearly and saturates at 1.
	if got := LRWarmup(0.5, 0.25); got != 1 {
		t.Fatalf("post-warmup LR factor %v, want 1", got)
	}
	if got := LRWarmup(0.125, 0.25); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("mid-warmup LR factor %v, want 0.5", got)
	}
	if got := LRWarmup(0, 0.25); got <= 0 {
		t.Fatal("warmup LR factor must never be zero")
	}
	if got := LRWarmup(0.3, 0); got != 1 {
		t.Fatal("no warmup window means factor 1")
	}

	// Sparsity anneals from warmStart down to target, monotonically.
	prev := 1.0
	for _, p := range []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5} {
		r := SparsityWarmup(p, 0.25, 0.25, 0.01)
		if r > prev+1e-12 {
			t.Fatalf("sparsity warmup not monotone at %v: %v > %v", p, r, prev)
		}
		if r < 0.01 || r > 0.25 {
			t.Fatalf("ratio %v outside [target, warmStart]", r)
		}
		prev = r
	}
	if got := SparsityWarmup(0, 0.25, 0.25, 0.01); got != 0.25 {
		t.Fatalf("warmup must start at warmStart, got %v", got)
	}
	if got := SparsityWarmup(0.3, 0.25, 0.25, 0.01); got != 0.01 {
		t.Fatalf("post-warmup ratio %v, want target", got)
	}
	if got := SparsityWarmup(0.1, 0.25, 0.005, 0.01); got != 0.01 {
		t.Fatal("warmStart below target degenerates to target")
	}
}

func TestSetKeepRatio(t *testing.T) {
	sizes := []int{100}
	for _, o := range []WorkerOptimizer{
		NewGradientDropping(sizes, 0.5),
		NewDGC(sizes, 0.7, 0.5),
		NewSAMomentum(sizes, 0.7, 0.5),
	} {
		rs, ok := o.(RatioSetter)
		if !ok {
			t.Fatalf("%s must implement RatioSetter", methodName(o))
		}
		rs.SetKeepRatio(0.01)
		g := make([]float32, 100)
		for i := range g {
			g[i] = float32(i + 1)
		}
		u := o.Prepare([][]float32{g}, 1)
		if u.NNZ() != 1 {
			t.Fatalf("%s after SetKeepRatio(0.01): NNZ=%d, want 1", methodName(o), u.NNZ())
		}
	}
}

// Velocity exposes the internal buffer for invariant tests.
func (o *SAMomentum) Velocity() [][]float32 { return o.u }
