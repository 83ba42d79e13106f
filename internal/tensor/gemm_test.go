package tensor

import (
	"math"
	"testing"
)

// naiveGemm is the reference implementation used to validate the optimised
// and parallel paths.
func naiveGemm(alpha float32, a []float32, m, k int, b []float32, n int, beta float32, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a[i*k+p]) * float64(b[p*n+j])
			}
			c[i*n+j] = alpha*float32(s) + beta*c[i*n+j]
		}
	}
}

func randomMat(rng *RNG, n int) []float32 {
	x := make([]float32, n)
	rng.FillUniform(x, -1, 1)
	return x
}

func matsClose(t *testing.T, got, want []float32, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > tol {
			t.Fatalf("element %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {33, 65, 17}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randomMat(rng, m*k)
		b := randomMat(rng, k*n)
		c := randomMat(rng, m*n)
		want := make([]float32, m*n)
		copy(want, c)
		naiveGemm(1.5, a, m, k, b, n, 0.5, want)
		Gemm(1.5, a, m, k, b, n, 0.5, c)
		matsClose(t, c, want, 1e-4)
	}
}

func TestGemmSeveralRowBlocks(t *testing.T) {
	// m spans two mc cache blocks, so the packed B block is reused across
	// A blocks.
	rng := NewRNG(2)
	m, k, n := 128, 80, 96
	a := randomMat(rng, m*k)
	b := randomMat(rng, k*n)
	c := make([]float32, m*n)
	want := make([]float32, m*n)
	naiveGemm(1, a, m, k, b, n, 0, want)
	Gemm(1, a, m, k, b, n, 0, c)
	matsClose(t, c, want, 1e-3)
}

func TestGemmBetaZeroOverwritesGarbage(t *testing.T) {
	rng := NewRNG(3)
	m, k, n := 4, 5, 6
	a := randomMat(rng, m*k)
	b := randomMat(rng, k*n)
	c := make([]float32, m*n)
	for i := range c {
		c[i] = float32(math.NaN())
	}
	Gemm(1, a, m, k, b, n, 0, c)
	for i, v := range c {
		if math.IsNaN(float64(v)) {
			t.Fatalf("beta=0 must ignore prior C contents (NaN at %d)", i)
		}
	}
}

func TestGemmTA(t *testing.T) {
	rng := NewRNG(4)
	k, m, n := 7, 5, 6
	a := randomMat(rng, k*m) // A is k×m, logical op is Aᵀ(m×k) * B(k×n)
	b := randomMat(rng, k*n)
	c := make([]float32, m*n)
	// Build transpose and use naive reference.
	at := make([]float32, m*k)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			at[i*k+p] = a[p*m+i]
		}
	}
	want := make([]float32, m*n)
	naiveGemm(2, at, m, k, b, n, 0, want)
	GemmTA(2, a, k, m, b, n, 0, c)
	matsClose(t, c, want, 1e-4)
}

func TestGemmTB(t *testing.T) {
	rng := NewRNG(5)
	m, k, n := 5, 7, 6
	a := randomMat(rng, m*k)
	b := randomMat(rng, n*k) // B is n×k, logical op is A(m×k) * Bᵀ(k×n)
	c := make([]float32, m*n)
	bt := make([]float32, k*n)
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			bt[p*n+j] = b[j*k+p]
		}
	}
	want := make([]float32, m*n)
	naiveGemm(1, a, m, k, bt, n, 0, want)
	GemmTB(1, a, m, k, b, n, 0, c)
	matsClose(t, c, want, 1e-4)
}

func TestGemmTAAccumulate(t *testing.T) {
	rng := NewRNG(6)
	k, m, n := 3, 2, 2
	a := randomMat(rng, k*m)
	b := randomMat(rng, k*n)
	c := make([]float32, m*n)
	GemmTA(1, a, k, m, b, n, 0, c)
	first := make([]float32, len(c))
	copy(first, c)
	GemmTA(1, a, k, m, b, n, 1, c) // accumulate: c = A'B + c = 2*A'B
	for i := range c {
		if math.Abs(float64(c[i]-2*first[i])) > 1e-5 {
			t.Fatalf("beta=1 accumulation wrong at %d", i)
		}
	}
}

func TestGemmSmallBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized buffer")
		}
	}()
	Gemm(1, make([]float32, 3), 2, 2, make([]float32, 4), 2, 0, make([]float32, 4))
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity.
	c, h, w := 2, 3, 3
	src := make([]float32, c*h*w)
	for i := range src {
		src[i] = float32(i)
	}
	dst := make([]float32, c*h*w)
	Im2Col(src, 1, c, h, w, 1, 1, 1, 0, h, w, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("identity im2col differs at %d", i)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	// 1 channel 2x2 image, 3x3 kernel, pad 1 => single output position,
	// centre of the patch grid sees the image, border sees zeros.
	src := []float32{1, 2, 3, 4}
	oh := ConvOutSize(2, 3, 1, 1) // = 2
	ow := oh
	dst := make([]float32, 9*oh*ow)
	Im2Col(src, 1, 1, 2, 2, 3, 3, 1, 1, oh, ow, dst)
	// For output (0,0): patch rows ki=0 all padded (iy=-1) => zeros.
	cols := oh * ow
	for kj := 0; kj < 3; kj++ {
		if dst[(0*3+kj)*cols+0] != 0 {
			t.Fatalf("expected zero padding at top row, kj=%d", kj)
		}
	}
	// For output (0,0), ki=1,kj=1 => iy=0, ix=0 => value 1.
	if got := dst[(1*3+1)*cols+0]; got != 1 {
		t.Fatalf("centre tap = %v, want 1", got)
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> must equal <x, Col2Im(y)> (adjoint property).
	rng := NewRNG(7)
	c, h, w := 2, 5, 5
	kh, kw, stride, pad := 3, 3, 2, 1
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(w, kw, stride, pad)
	x := randomMat(rng, c*h*w)
	y := randomMat(rng, c*kh*kw*oh*ow)
	ix := make([]float32, c*kh*kw*oh*ow)
	Im2Col(x, 1, c, h, w, kh, kw, stride, pad, oh, ow, ix)
	cy := make([]float32, c*h*w)
	Col2Im(y, 1, c, h, w, kh, kw, stride, pad, oh, ow, cy)
	lhs := Dot(ix, y)
	rhs := Dot(x, cy)
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: <Ax,y>=%v <x,A'y>=%v", lhs, rhs)
	}
}

func TestConvOutSize(t *testing.T) {
	if got := ConvOutSize(32, 3, 1, 1); got != 32 {
		t.Fatalf("same-conv out = %d, want 32", got)
	}
	if got := ConvOutSize(32, 3, 2, 1); got != 16 {
		t.Fatalf("strided out = %d, want 16", got)
	}
	if got := ConvOutSize(4, 2, 2, 0); got != 2 {
		t.Fatalf("pool-like out = %d, want 2", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should differ (overwhelmingly)")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	p := NewRNG(5).Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", v)
		}
		seen[v] = true
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(11)
	const n = 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.08 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestKaimingFillScale(t *testing.T) {
	rng := NewRNG(12)
	x := make([]float32, 20000)
	rng.KaimingFill(x, 50)
	var sq float64
	for _, v := range x {
		sq += float64(v) * float64(v)
	}
	variance := sq / float64(len(x))
	want := 2.0 / 50.0
	if math.Abs(variance-want) > want*0.15 {
		t.Fatalf("kaiming variance = %v, want ~%v", variance, want)
	}
}

func BenchmarkGemm128(b *testing.B) {
	rng := NewRNG(1)
	m, k, n := 128, 128, 128
	a := randomMat(rng, m*k)
	bb := randomMat(rng, k*n)
	c := make([]float32, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(1, a, m, k, bb, n, 0, c)
	}
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
}

// FillUniform fills x with uniform values in [lo,hi).
func (r *RNG) FillUniform(x []float32, lo, hi float32) {
	span := hi - lo
	for i := range x {
		x[i] = lo + span*r.Float32()
	}
}
