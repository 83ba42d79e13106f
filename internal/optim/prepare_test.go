package optim

import (
	"math"
	"runtime"
	"testing"

	"dgs/internal/raceflag"
	"dgs/internal/sparse"
	"dgs/internal/tensor"
)

// mlpSizes is the benchmark MLP (64-512-512-64): one 512×512 layer holds
// four fifths of the parameters.
var mlpSizes = []int{64 * 512, 512, 512 * 512, 512, 512 * 64, 64}

// unfused is the five-pass form of the three sparsifying rules — accumulate,
// select, gather, aftermath, each its own walk — that the fused Prepare must
// reproduce bit for bit: same chunks, same state afterwards.
type unfused struct {
	rule string
	m    float32
	keep float64
	u, v [][]float32
}

func (o *unfused) prepare(grads [][]float32, lr float32) sparse.Update {
	var out sparse.Update
	for i, g := range grads {
		u, v := o.u[i], o.v[i]
		sel := u
		for j, gv := range g {
			switch o.rule {
			case "gd":
				u[j] += lr * gv
			case "dgc":
				u[j] = o.m*u[j] + lr*gv
				v[j] += u[j]
				sel = v
			case "sam":
				u[j] = o.m*u[j] + lr*gv
			}
		}
		idx := sparse.TopKIndices(sel, sparse.KForRatio(len(sel), o.keep))
		if len(idx) == 0 {
			continue
		}
		c := sparse.Gather(i, sel, idx)
		out.Chunks = append(out.Chunks, c)
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
			sent := make(map[int32]bool, len(idx))
			for _, j := range idx {
				sent[j] = true
			}
			invM := 1 / o.m
			for j := range u {
				if !sent[int32(j)] {
					u[j] *= invM
				}
			}
		}
	}
	return out
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

func TestPrepareMatchesUnfusedReference(t *testing.T) {
	// Sizes on both sides of the selector's exact-stage cutoff, an empty
	// layer, and a layer that stays all-zero (heavy ties); the total is past
	// parallelPrepThreshold, so on a multi-core host the fan-out runs.
	sizes := []int{70000, 7, 0, 1024, 9000, 3000}
	const m, keep, lr = 0.7, 0.05, 0.1
	gd, dgc, sam := NewGradientDropping(sizes, keep), NewDGC(sizes, m, keep), NewSAMomentum(sizes, m, keep)
	cases := []struct {
		opt  WorkerOptimizer
		ref  *unfused
		u, v [][]float32
	}{
		{gd, &unfused{rule: "gd", keep: keep, u: allocLike(sizes), v: allocLike(sizes)}, gd.r, nil},
		{dgc, &unfused{rule: "dgc", m: m, keep: keep, u: allocLike(sizes), v: allocLike(sizes)}, dgc.u, dgc.v},
		{sam, &unfused{rule: "sam", m: m, keep: keep, u: allocLike(sizes), v: allocLike(sizes)}, sam.u, nil},
	}
	rng := tensor.NewRNG(21)
	grads := allocLike(sizes)
	for step := 0; step < 6; step++ {
		for i, g := range grads {
			if i != len(grads)-1 { // last layer: gradient stays zero
				rng.FillNormal(g, 0, 1)
			}
		}
		for _, tc := range cases {
			got, want := tc.opt.Prepare(grads, lr), tc.ref.prepare(grads, lr)
			if len(got.Chunks) != len(want.Chunks) {
				t.Fatalf("%s step %d: %d chunks, reference %d", tc.opt.Name(), step, len(got.Chunks), len(want.Chunks))
			}
			for ci := range got.Chunks {
				g, w := &got.Chunks[ci], &want.Chunks[ci]
				if g.Layer != w.Layer || len(g.Idx) != len(w.Idx) {
					t.Fatalf("%s step %d chunk %d: layer %d nnz %d, reference layer %d nnz %d",
						tc.opt.Name(), step, ci, g.Layer, len(g.Idx), w.Layer, len(w.Idx))
				}
				for j := range g.Idx {
					if g.Idx[j] != w.Idx[j] {
						t.Fatalf("%s step %d layer %d entry %d: index %d, reference %d",
							tc.opt.Name(), step, g.Layer, j, g.Idx[j], w.Idx[j])
					}
				}
				if !bitsEqual(g.Val, w.Val) {
					t.Fatalf("%s step %d layer %d: values differ from reference", tc.opt.Name(), step, g.Layer)
				}
			}
			for i := range sizes {
				if !bitsEqual(tc.u[i], tc.ref.u[i]) || (tc.v != nil && !bitsEqual(tc.v[i], tc.ref.v[i])) {
					t.Fatalf("%s step %d layer %d: state differs from reference", tc.opt.Name(), step, i)
				}
			}
		}
	}
}

func TestPrepareSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The lock covers the selection and assembly scratch; the layer fan-out
	// spawns its goroutines per call, so pin it to the serial walk.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	grads := allocLike(mlpSizes)
	rng := tensor.NewRNG(22)
	for _, g := range grads {
		rng.FillNormal(g, 0, 1)
	}
	for _, o := range []WorkerOptimizer{
		NewGradientDropping(mlpSizes, 0.05),
		NewDGC(mlpSizes, 0.7, 0.05),
		NewSAMomentum(mlpSizes, 0.7, 0.05),
	} {
		// Chunk capacity grows by doubling, so a few steps settle it even as
		// the selected set moves.
		for warm := 0; warm < 4; warm++ {
			o.Prepare(grads, 0.1)
		}
		if allocs := testing.AllocsPerRun(10, func() { o.Prepare(grads, 0.1) }); allocs > 0 {
			t.Errorf("%s: steady-state Prepare allocates %v objects, want 0", o.Name(), allocs)
		}
	}
}

// BenchmarkPrepare cycles through several gradient draws: with one fixed
// gradient the velocity settles into a deterministic send cycle whose
// magnitudes pile onto the threshold far beyond what training produces.
func BenchmarkPrepare(b *testing.B) {
	rng := tensor.NewRNG(23)
	draws := make([][][]float32, 8)
	for d := range draws {
		draws[d] = allocLike(mlpSizes)
		for _, g := range draws[d] {
			rng.FillNormal(g, 0, 1)
		}
	}
	for _, o := range []WorkerOptimizer{
		NewGradientDropping(mlpSizes, 0.05),
		NewDGC(mlpSizes, 0.7, 0.05),
		NewSAMomentum(mlpSizes, 0.7, 0.05),
	} {
		b.Run(o.Name(), func(b *testing.B) {
			for d := range draws {
				o.Prepare(draws[d], 0.1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Prepare(draws[i%len(draws)], 0.1)
			}
		})
	}
}
