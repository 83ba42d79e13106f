package optim

import (
	"math"
	"slices"
	"testing"

	"dgs/internal/data"
	"dgs/internal/nn"
	"dgs/internal/raceflag"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// mlpSizes is the benchmark MLP (64-512-512-64): one 512×512 layer holds
// four fifths of the parameters.
var mlpSizes = []int{64 * 512, 512, 512 * 512, 512, 512 * 64, 64}

// unfused is the five-pass form of the three sparsifying rules — accumulate,
// select, gather, aftermath, each its own walk — that the warm-started
// Prepare must reproduce bit for bit: same chunks, same state afterwards.
// Each product is rounded before the sum, as the rules' accumulate pass
// rounds it on every architecture.
type unfused struct {
	rule string
	m    float32
	keep float64
	u, v [][]float32
	e    [][]float32 // SAMomentum's error memory, nil until the first fold

	// mass is the direct in-order Σ|unsent| of the last prepare, each term
	// the exact float64 product of the unsent value and its rescale (so
	// SAMomentum's is free of the rescale's float32 rounding).
	mass float64
}

func (o *unfused) prepare(grads [][]float32, lr float32) sparse.Update {
	var out sparse.Update
	o.mass = 0
	for i, g := range grads {
		u, v := o.u[i], o.v[i]
		sel := u
		for j, gv := range g {
			switch o.rule {
			case "gd":
				u[j] += float32(lr * gv)
			case "dgc":
				u[j] = float32(o.m*u[j]) + float32(lr*gv)
				v[j] += u[j]
				sel = v
			case "sam":
				u[j] = float32(o.m*u[j]) + float32(lr*gv)
				if o.e != nil {
					u[j] += o.e[i][j]
				}
			}
		}
		idx := sparse.TopKIndices(sel, sparse.KForRatio(len(sel), o.keep))
		if len(idx) == 0 {
			continue
		}
		c := sparse.Gather(i, sel, idx)
		out.Chunks = append(out.Chunks, c)
		sent := make(map[int32]bool, len(idx))
		for _, j := range idx {
			sent[j] = true
		}
		scale := float32(1)
		if o.rule == "sam" {
			scale = 1 / o.m
		}
		for j, x := range sel {
			if !sent[int32(j)] {
				o.mass += math.Abs(float64(x) * float64(scale))
			}
		}
		switch o.rule {
		case "gd":
			for _, j := range idx {
				u[j] = 0
			}
		case "dgc":
			for _, j := range idx {
				v[j], u[j] = 0, 0
			}
		case "sam":
			for j := range u {
				if !sent[int32(j)] {
					u[j] *= scale
				}
			}
			if o.e == nil {
				break
			}
			e := o.e[i]
			for _, j := range idx {
				u[j] -= e[j]
				e[j] = 0
			}
			for j := range u {
				if e[j] != 0 {
					u[j] -= float32(e[j] * scale)
				}
			}
		}
	}
	return out
}

// fold is FoldResidual on the reference: into the vector Top-k selects
// from, or SAMomentum's error memory.
func (o *unfused) fold(e *sparse.Update) {
	dst := o.u
	switch o.rule {
	case "dgc":
		dst = o.v
	case "sam":
		if o.e == nil {
			o.e = allocLike(scheduleSizes)
		}
		dst = o.e
	}
	applyUpdate(*e, dst)
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// Sizes on both sides of the selector's exact-stage cutoff and of the
// candidate bound (4·max(k, 1024)), an empty layer, and two layers that
// stay all-zero (heavy ties): one within the bound, and one past it, which
// misses every step.
var (
	scheduleSizes = []int{70001, 7, 0, 1023, 1024, 1025, 9000, 500, 5000}
	scheduleZero  = map[int]bool{7: true, 8: true} // layer indices
)

// scheduleStep is one Prepare of prepareSchedule. The 70001-coordinate
// layer must take the path want names, "" for either.
type scheduleStep struct {
	name  string
	scale float32 // gradient multiplier
	keep  float64 // SetKeepRatio before the step, if non-zero
	fold  bool    // FoldResidual before the step
	inf   bool    // one gradient coordinate of layer 0 is +Inf, one of layer 3 −Inf
	want  string  // "hit" or "miss"
}

// prepareSchedule forces every way the warm start can miss — the first
// step, a quiet step that leaves fewer than k over the floor, a keep-ratio
// drop that leaves far more than the new bound there, a spike that does the
// same — between steps that hit, plus a residual fold between steps, a step
// that sends every coordinate and one that sends an infinite one.
// Gradients are i.i.d. normal draws; the all-zero layers stay zero.
var prepareSchedule = []scheduleStep{
	{name: "first", scale: 1, want: "miss"},
	{name: "settle", scale: 1},
	{name: "settle", scale: 1},
	{name: "warm", scale: 1, want: "hit"},
	// Two quiet steps: DGC's velocity still carries the last loud
	// gradients through the first.
	{name: "quiet ×1e-3", scale: 1e-3},
	{name: "quiet ×1e-3", scale: 1e-3, want: "miss"},
	{name: "settle", scale: 1},
	{name: "settle", scale: 1},
	{name: "settle", scale: 1},
	{name: "warm", scale: 1, want: "hit"},
	{name: "keep drop 10 % → 1 %", scale: 1, keep: 0.01, want: "miss"},
	{name: "settle", scale: 1},
	{name: "settle", scale: 1},
	{name: "warm at 1 %", scale: 1, want: "hit"},
	{name: "fold", scale: 1, fold: true},
	{name: "warm", scale: 1, want: "hit"},
	{name: "keep 100 %", scale: 1, keep: 1},
	{name: "keep 10 %", scale: 1, keep: 0.1, want: "miss"},
	{name: "settle", scale: 1},
	{name: "settle", scale: 1},
	{name: "warm", scale: 1, want: "hit"},
	// Last: a spike's residual takes many steps to drain, and SAMomentum
	// keeps an infinite velocity for good.
	{name: "spike ×1e3", scale: 1e3, want: "miss"},
	{name: "±Inf", scale: 1, inf: true},
}

// runSchedule drives opt and its reference through prepareSchedule, calling
// check after each step with both updates.
func runSchedule(t *testing.T, opt WorkerOptimizer, ref *unfused, check func(step int, st scheduleStep, got, want sparse.Update)) {
	t.Helper()
	rng := tensor.NewRNG(21)
	grads := allocLike(scheduleSizes)
	const lr = 0.1
	ts := scratchOf(opt)
	for step, st := range prepareSchedule {
		for i, g := range grads {
			if scheduleZero[i] {
				continue
			}
			rng.FillNormal(g, 0, 1)
			for j := range g {
				g[j] *= st.scale
			}
		}
		if st.inf {
			grads[0][100], grads[3][9] = float32(math.Inf(1)), float32(math.Inf(-1))
		}
		if st.keep != 0 {
			opt.(RatioSetter).SetKeepRatio(st.keep)
			ref.keep = st.keep
		}
		if st.fold {
			e := sparse.Update{Chunks: []sparse.Chunk{{Layer: 0, Idx: []int32{0, 5, 7, 69999}, Val: []float32{0.25, -3, 1e-3, 2}}}}
			opt.(ResidualFolder).FoldResidual(&e)
			ref.fold(&e)
		}
		got, want := opt.Prepare(grads, lr), ref.prepare(grads, lr)
		if st.want != "" && ts.missed[0] != (st.want == "miss") {
			t.Fatalf("%s step %d (%s): layer 0 missed=%v, want a %s", opt.Name(), step, st.name, ts.missed[0], st.want)
		}
		zero := scheduleSizes[8]
		if pastBound := zero > candidateSlack*max(sparse.KForRatio(zero, ref.keep), sparse.ExactCap); pastBound && !ts.missed[8] {
			t.Fatalf("%s step %d (%s): the all-zero layer past the bound hit", opt.Name(), step, st.name)
		}
		check(step, st, got, want)
	}
}

// newScheduleCases returns the three rules at keep 10 % and m 0.7, each
// with its unfused reference and the state to compare.
func newScheduleCases() []struct {
	opt  WorkerOptimizer
	ref  *unfused
	u, v [][]float32
} {
	const m, keep = 0.7, 0.1
	sizes := scheduleSizes
	gd, dgc, sam := NewGradientDropping(sizes, keep), NewDGC(sizes, m, keep), NewSAMomentum(sizes, m, keep)
	return []struct {
		opt  WorkerOptimizer
		ref  *unfused
		u, v [][]float32
	}{
		{gd, &unfused{rule: "gd", keep: keep, u: allocLike(sizes), v: allocLike(sizes)}, gd.r, nil},
		{dgc, &unfused{rule: "dgc", m: m, keep: keep, u: allocLike(sizes), v: allocLike(sizes)}, dgc.u, dgc.v},
		{sam, &unfused{rule: "sam", m: m, keep: keep, u: allocLike(sizes), v: allocLike(sizes)}, sam.u, nil},
	}
}

func TestPrepareMatchesUnfusedReference(t *testing.T) {
	for _, tc := range newScheduleCases() {
		name := tc.opt.Name()
		runSchedule(t, tc.opt, tc.ref, func(step int, _ scheduleStep, got, want sparse.Update) {
			if len(got.Chunks) != len(want.Chunks) {
				t.Fatalf("%s step %d: %d chunks, reference %d", name, step, len(got.Chunks), len(want.Chunks))
			}
			for ci := range got.Chunks {
				g, w := &got.Chunks[ci], &want.Chunks[ci]
				if g.Layer != w.Layer || !slices.Equal(g.Idx, w.Idx) || !bitsEqual(g.Val, w.Val) {
					t.Fatalf("%s step %d chunk %d (layer %d, %d entries): differs from reference (layer %d, %d entries)",
						name, step, ci, g.Layer, len(g.Idx), w.Layer, len(w.Idx))
				}
			}
			e := errorMemory(tc.opt)
			if (e == nil) != (tc.ref.e == nil) {
				t.Fatalf("%s step %d: error memory allocated %v, reference %v", name, step, e != nil, tc.ref.e != nil)
			}
			for i := range scheduleSizes {
				if !bitsEqual(tc.u[i], tc.ref.u[i]) || (tc.v != nil && !bitsEqual(tc.v[i], tc.ref.v[i])) ||
					(e != nil && !bitsEqual(e[i], tc.ref.e[i])) {
					t.Fatalf("%s step %d layer %d: state differs from reference", name, step, i)
				}
			}
		})
	}
}

// TestResidualMassMatchesDirectSum holds dgs_optim_residual_mass, which
// Prepare derives as s·(Σ|x| − Σ|sent|) without a pass of its own, to the
// reference's direct in-order Σ|unsent| on hit and miss steps, and to the
// Σ|unsent| of the state Prepare leaves within the float32 rounding of
// SAMomentum's rescale (2⁻²⁴ of each term). SAMomentum selects from u + e
// once it has an error memory, so its state term is u + e/m: the gauge
// counts e at the rescale too. It reads exactly 0 when every coordinate is
// sent, and NaN once a sent coordinate is infinite.
func TestResidualMassMatchesDirectSum(t *testing.T) {
	for _, tc := range newScheduleCases() {
		name, gauge := tc.opt.Name(), scratchOf(tc.opt).om.residualMass
		runSchedule(t, tc.opt, tc.ref, func(step int, st scheduleStep, got, _ sparse.Update) {
			m, direct := gauge.Value(), tc.ref.mass
			if st.inf {
				if !math.IsNaN(m) {
					t.Fatalf("%s step %d: residual mass %v with an infinite coordinate sent, want NaN", name, step, m)
				}
				return
			}
			if math.Abs(m-direct) > 1e-9*direct {
				t.Fatalf("%s step %d: residual mass %v, direct Σ|unsent| %v (relative error %.2g)",
					name, step, m, direct, math.Abs(m-direct)/direct)
			}
			state := tc.u
			if tc.v != nil {
				state = tc.v // DGC's unsent residual is v; u is momentum
			}
			sent := make(map[[2]int]bool)
			for _, c := range got.Chunks {
				for _, j := range c.Idx {
					sent[[2]int{c.Layer, int(j)}] = true
				}
			}
			e := errorMemory(tc.opt)
			var stored float64
			for i, l := range state {
				for j, v := range l {
					if sent[[2]int{i, j}] {
						continue
					}
					x := float64(v)
					if e != nil {
						x += float64(e[i][j]) / float64(tc.ref.m)
					}
					stored += math.Abs(x)
				}
			}
			if math.Abs(m-stored) > 0x1p-24*stored {
				t.Fatalf("%s step %d: residual mass %v, Σ|unsent| of the state %v", name, step, m, stored)
			}
		})
	}
}

func TestPrepareSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	grads := allocLike(mlpSizes)
	rng := tensor.NewRNG(22)
	for _, g := range grads {
		rng.FillNormal(g, 0, 1)
	}
	sbc, err := sparse.CodecByName("sbc")
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range sparsifiers {
		o := build(mlpSizes)
		// Chunk capacity grows by doubling, so a few steps settle it even as
		// the selected set moves.
		for warm := 0; warm < 4; warm++ {
			o.Prepare(grads, 0.1)
		}
		if allocs := testing.AllocsPerRun(10, func() { o.Prepare(grads, 0.1) }); allocs > 0 {
			t.Errorf("%s: steady-state Prepare allocates %v objects, want 0", o.Name(), allocs)
		}
		// The same after an SBC fold, which gives SAMomentum its error
		// memory: the steps after it fold an SBC error of their own.
		var q, e sparse.Update
		upd := o.Prepare(grads, 0.1)
		sbc.(sparse.Quantizer).Quantize(&q, &upd, &e)
		o.(ResidualFolder).FoldResidual(&e)
		for warm := 0; warm < 4; warm++ {
			o.Prepare(grads, 0.1)
			o.(ResidualFolder).FoldResidual(&e)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			o.Prepare(grads, 0.1)
			o.(ResidualFolder).FoldResidual(&e)
		}); allocs > 0 {
			t.Errorf("%s: Prepare after an SBC fold allocates %v objects, want 0", o.Name(), allocs)
		}
	}
}

// BenchmarkPrepare times Prepare on the benchmark MLP in two regimes.
// "iid" cycles through several i.i.d. normal gradient draws: with one fixed
// gradient the velocity would settle into a deterministic send cycle. Its
// magnitudes still pile up under the threshold beyond what training
// produces (2–3·k candidates for SAMomentum, against 1.2–1.5·k in
// training), which the candidate bound covers. "trained" is
// the benchmark's mlp_dgs geometry with one worker applying its own
// updates: the MLP on the Gaussian mixture, batch 64, LR 0.02, m 0.7, keep
// 5 %. Only Prepare is timed. Both report misses/op, the layer-steps that
// took the histogram path (of six layers).
func BenchmarkPrepare(b *testing.B) {
	rng := tensor.NewRNG(23)
	draws := make([][][]float32, 8)
	for d := range draws {
		draws[d] = allocLike(mlpSizes)
		for _, g := range draws[d] {
			rng.FillNormal(g, 0, 1)
		}
	}
	for _, build := range sparsifiers {
		o := build(mlpSizes)
		b.Run("iid/"+o.Name(), func(b *testing.B) {
			for d := range draws {
				o.Prepare(draws[d], 0.1)
			}
			ts, misses := scratchOf(o), 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Prepare(draws[i%len(draws)], 0.1)
				misses += ts.misses()
			}
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
		})
	}
	for _, build := range sparsifiers {
		b.Run("trained/"+build(mlpSizes).Name(), func(b *testing.B) {
			t := newTrainedMLP(24)
			o := build(t.model.LayerSizes())
			ts, misses := scratchOf(o), 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				grads := t.gradients()
				b.StartTimer()
				upd := o.Prepare(grads, 0.02)
				b.StopTimer()
				misses += ts.misses()
				t.apply(&upd)
				b.StartTimer()
			}
			b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
		})
	}
}

// sparsifiers build the three sparsifying rules at the benchmark's
// momentum and keep ratio.
var sparsifiers = []func(sizes []int) WorkerOptimizer{
	func(sizes []int) WorkerOptimizer { return NewGradientDropping(sizes, 0.05) },
	func(sizes []int) WorkerOptimizer { return NewDGC(sizes, 0.7, 0.05) },
	func(sizes []int) WorkerOptimizer { return NewSAMomentum(sizes, 0.7, 0.05) },
}

// errorMemory returns SAMomentum's error memory, nil for the other rules
// and before the first fold.
func errorMemory(o WorkerOptimizer) [][]float32 {
	if sam, ok := o.(*SAMomentum); ok {
		return sam.e
	}
	return nil
}

func scratchOf(o WorkerOptimizer) *topkScratch {
	switch o := o.(type) {
	case *GradientDropping:
		return &o.ts
	case *DGC:
		return &o.ts
	case *SAMomentum:
		return &o.ts
	}
	panic("optim: not a sparsifying rule")
}

// misses is how many layers took the histogram path in the last Prepare.
func (s *topkScratch) misses() int {
	n := 0
	for _, m := range s.missed {
		if m {
			n++
		}
	}
	return n
}

// trainedMLP is one worker training the benchmark MLP on the benchmark's
// Gaussian mixture and applying its own updates, θ ← θ − d.
type trainedMLP struct {
	model  *nn.Model
	loader *data.Loader
}

func newTrainedMLP(seed uint64) *trainedMLP {
	ds := data.NewGaussianMixture(64, 64, 8192, 512, 0.8, seed)
	return &trainedMLP{
		model:  nn.NewMLP(tensor.NewRNG(seed), 64, 512, 512, 64),
		loader: data.NewLoader(ds, 64, seed+1000, true),
	}
}

func (t *trainedMLP) gradients() [][]float32 {
	batch := t.loader.Next()
	t.model.ZeroGrad()
	_, g := nn.SoftmaxCrossEntropy(t.model.Forward(batch.X, true), batch.Labels)
	t.model.Backward(g)
	return t.model.Gradients()
}

func (t *trainedMLP) apply(u *sparse.Update) {
	params := t.model.Params()
	for ci := range u.Chunks {
		c := &u.Chunks[ci]
		sparse.Scatter(c, params[c.Layer].Value.Data, -1)
	}
}
