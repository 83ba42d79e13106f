package tensor

import (
	"math"
	"sync"
	"testing"

	"dgs/internal/raceflag"
)

// The blocked engine must agree with the frozen pre-PR kernels on every
// shape, including the degenerate and tile-edge cases the packing code has
// to zero-pad: single rows/columns, empty depth, and dimensions that do not
// divide the micro-tile (4×16), the cache blocks (64/128/256), or both.
// Shapes are chosen so all but "tiny" exceed smallGemmVolume and actually
// exercise the blocked path ("tiny" documents the dispatch to the baseline
// loops). The second group is every product a training step of the
// end-to-end benchmark's models performs (see modelGemmShapes), then the
// sub-tile, ragged and k=1 corners of the direct-accumulate epilogue.
var equivalenceShapes = []struct {
	name    string
	m, n, k int
}{
	{"tiny", 2, 3, 4},
	{"k_zero", 5, 6, 0},
	{"single_row", 1, 257, 300},
	{"single_col", 300, 1, 257},
	{"exact_tile", 64, 128, 256},
	{"off_by_one_tile", 65, 129, 257},
	{"sub_tile_rows", 3, 640, 100},
	{"sub_tile_cols", 640, 5, 100},
	{"prime_dims", 37, 131, 97},
	{"conv_fwd", 32, 256, 288},
	{"wide_n", 8, 1024, 64},

	{"conv_stem", 8, 2048, 27},
	{"conv_s0", 8, 2048, 72},
	{"conv_s1", 16, 512, 144},
	{"conv_s2", 32, 128, 288},
	{"conv_s0_dw", 8, 72, 2048},
	{"conv_s0_dcols", 72, 2048, 8},
	{"mlp_hidden", 64, 512, 512},
	{"mlp_dw", 512, 512, 64},
	{"rows_lt_tile", 3, 48, 40},
	{"cols_lt_tile", 40, 11, 48},
	{"ragged_cols", 12, 37, 24},
	{"k_one", 24, 40, 1},
}

// equivalenceScalars is alpha∈{1, 0.5} × beta∈{0, 1, 0.5}: alpha = 1 takes
// the direct-accumulate epilogue on full tiles, anything else stages every
// tile; the three betas are overwrite, accumulate and scale.
var equivalenceScalars = [][2]float32{{1, 0}, {1, 1}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {0.5, 0.5}}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > m {
			m = d
		}
	}
	return m
}

// tolFor scales the comparison tolerance with the accumulation depth: the
// baseline kernels accumulate in different orders (and GemmTB in float64),
// so agreement is to rounding, not bit-exactness.
func tolFor(k int) float64 { return 1e-4 * float64(k+1) }

// checkEquivalence runs one entry point over the shape table. The frozen
// baseline computes the plain product once per shape (alpha 1, beta 0);
// each scalar pair is then checked against alpha*product + beta*C0.
func checkEquivalence(t *testing.T, seed uint64,
	blocked, baseline func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32)) {
	rng := NewRNG(seed)
	for _, s := range equivalenceShapes {
		t.Run(s.name, func(t *testing.T) {
			a := randomMat(rng, s.m*s.k)
			b := randomMat(rng, s.k*s.n)
			c0 := randomMat(rng, s.m*s.n)
			product := make([]float32, s.m*s.n)
			baseline(1, a, b, s.m, s.k, s.n, 0, product)
			for _, ab := range equivalenceScalars {
				alpha, beta := ab[0], ab[1]
				got := append([]float32(nil), c0...)
				blocked(alpha, a, b, s.m, s.k, s.n, beta, got)
				want := make([]float32, len(got))
				for i := range want {
					want[i] = alpha*product[i] + beta*c0[i]
				}
				if d := maxAbsDiff(got, want); d > tolFor(s.k) {
					t.Fatalf("alpha=%v beta=%v: max diff %v", alpha, beta, d)
				}
			}
		})
	}
}

func TestGemmEquivalence(t *testing.T) {
	checkEquivalence(t, 21,
		func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32) {
			Gemm(alpha, a, m, k, b, n, beta, c)
		},
		func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32) {
			BaselineGemm(alpha, a, m, k, b, n, beta, c)
		})
}

func TestGemmTAEquivalence(t *testing.T) {
	checkEquivalence(t, 22, // a is stored k×m
		func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32) {
			GemmTA(alpha, a, k, m, b, n, beta, c)
		},
		func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32) {
			BaselineGemmTA(alpha, a, k, m, b, n, beta, c)
		})
}

func TestGemmTBEquivalence(t *testing.T) {
	checkEquivalence(t, 23, // b is stored n×k
		func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32) {
			GemmTB(alpha, a, m, k, b, n, beta, c)
		},
		func(alpha float32, a, b []float32, m, k, n int, beta float32, c []float32) {
			BaselineGemmTB(alpha, a, m, k, b, n, beta, c)
		})
}

// TestGemmDirectEqualsStagedTile checks, bit for bit, that a tile the
// micro-kernel adds straight into C is the tile the staging path produces.
// The product is computed twice: once with m and n whole multiples of the
// micro-tile, so every tile is written directly, and once with the last row
// and the last column dropped, so the tiles along both edges are partial
// and go through the zeroed staging tile and the clipped add. Every element
// the two have in common must agree exactly, for all three entry points and
// with C accumulating (beta = 1) over more than one k block.
func TestGemmDirectEqualsStagedTile(t *testing.T) {
	rng := NewRNG(29)
	const m, n, k = 2 * mrGemm, 2 * nrGemm, kcGemm + 44
	a := randomMat(rng, m*k)  // m×k, read as k'×m' by GemmTA below
	b := randomMat(rng, k*n)  // k×n
	bt := randomMat(rng, n*k) // n×k for GemmTB
	c0 := randomMat(rng, m*n)
	sub := func(x []float32, rows, cols, ld int) []float32 { // leading rows×cols of a matrix with row stride ld
		out := make([]float32, 0, rows*cols)
		for i := 0; i < rows; i++ {
			out = append(out, x[i*ld:i*ld+cols]...)
		}
		return out
	}
	check := func(name string, full, cut []float32) {
		t.Helper()
		for i := 0; i < m-1; i++ {
			for j := 0; j < n-1; j++ {
				if f, s := full[i*n+j], cut[i*(n-1)+j]; math.Float32bits(f) != math.Float32bits(s) {
					t.Fatalf("%s: c[%d,%d] direct %v != staged %v", name, i, j, f, s)
				}
			}
		}
	}

	full, cut := append([]float32(nil), c0...), sub(c0, m-1, n-1, n)
	Gemm(1, a, m, k, b, n, 1, full)
	Gemm(1, sub(a, m-1, k, k), m-1, k, sub(b, k, n-1, n), n-1, 1, cut)
	check("Gemm", full, cut)

	full, cut = append([]float32(nil), c0...), sub(c0, m-1, n-1, n)
	at := randomMat(rng, k*m) // k×m
	GemmTA(1, at, k, m, b, n, 1, full)
	GemmTA(1, sub(at, k, m-1, m), k, m-1, sub(b, k, n-1, n), n-1, 1, cut)
	check("GemmTA", full, cut)

	full, cut = append([]float32(nil), c0...), sub(c0, m-1, n-1, n)
	GemmTB(1, a, m, k, bt, n, 1, full)
	GemmTB(1, sub(a, m-1, k, k), m-1, k, bt[:(n-1)*k], n-1, 1, cut)
	check("GemmTB", full, cut)
}

// TestGemmConcurrentCallersIdentical runs the same product from several
// goroutines at once (each trainer worker calls the engine from its own
// goroutine, sharing only the pack-buffer pool) and requires every result
// to be bit-identical to the one computed alone.
func TestGemmConcurrentCallersIdentical(t *testing.T) {
	rng := NewRNG(30)
	const m, k, n = 64, 300, 200
	a, b := randomMat(rng, m*k), randomMat(rng, n*k)
	want := make([]float32, m*n)
	GemmTB(1, a, m, k, b, n, 0, want)
	const callers = 4
	got := make([][]float32, callers)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]float32, m*n)
		wg.Add(1)
		go func(c []float32) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				GemmTB(1, a, m, k, b, n, 0, c)
			}
		}(got[g])
	}
	wg.Wait()
	for g, c := range got {
		for i := range want {
			if math.Float32bits(c[i]) != math.Float32bits(want[i]) {
				t.Fatalf("caller %d: c[%d] = %v, want %v", g, i, c[i], want[i])
			}
		}
	}
}

// TestGemmKZeroScalesC locks the k=0 contract: C = beta*C with no reads of
// A or B.
func TestGemmKZeroScalesC(t *testing.T) {
	c := []float32{1, 2, 3, 4}
	Gemm(3, nil, 2, 0, nil, 2, 0.5, c)
	for i, want := range []float32{0.5, 1, 1.5, 2} {
		if c[i] != want {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], want)
		}
	}
}

// TestGemmSteadyStateAllocs verifies the blocked engine's pooled buffers:
// after warm-up, large GEMMs on all three kernels allocate nothing.
func TestGemmSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector perturbs sync.Pool reuse; alloc counts unreliable")
	}
	rng := NewRNG(24)
	m, k, n := 96, 96, 96
	a := randomMat(rng, m*k)
	b := randomMat(rng, k*n)
	c := make([]float32, m*n)
	warm := func() {
		Gemm(1, a, m, k, b, n, 0, c)
		GemmTA(1, a, k, m, b, n, 0, c)
		GemmTB(1, a, m, k, b, n, 0, c)
	}
	warm()
	allocs := testing.AllocsPerRun(10, warm)
	if allocs > 0 {
		t.Fatalf("steady-state GEMM allocates %v objects per run, want 0", allocs)
	}
}

func BenchmarkGemmTA(b *testing.B) {
	rng := NewRNG(25)
	k, m, n := 32, 288, 1024 // conv backward dcols shape
	a := randomMat(rng, k*m)
	bb := randomMat(rng, k*n)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTA(1, a, k, m, bb, n, 0, c)
	}
	b.SetBytes(int64(4 * (k*m + k*n + m*n)))
}

func BenchmarkGemmTB(b *testing.B) {
	rng := NewRNG(26)
	m, k, n := 32, 1024, 288 // conv backward dW shape
	a := randomMat(rng, m*k)
	bb := randomMat(rng, n*k)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTB(1, a, m, k, bb, n, 0, c)
	}
	b.SetBytes(int64(4 * (m*k + n*k + m*n)))
}
