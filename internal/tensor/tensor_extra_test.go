package tensor

import (
	"math"
	"testing"
)

func TestGemmTBBetaSemantics(t *testing.T) {
	a := []float32{1, 2} // 1×2
	b := []float32{3, 4} // 1×2 (Bᵀ is 2×1)
	c := []float32{100}
	// beta=0 overwrites: c = a·bᵀ = 11.
	GemmTB(1, a, 1, 2, b, 1, 0, c)
	if c[0] != 11 {
		t.Fatalf("beta=0: c = %v, want 11", c[0])
	}
	// beta=1 accumulates: c = 11 + 11 = 22.
	GemmTB(1, a, 1, 2, b, 1, 1, c)
	if c[0] != 22 {
		t.Fatalf("beta=1: c = %v, want 22", c[0])
	}
}

func TestGemmZeroDims(t *testing.T) {
	// m=0 or n=0 must be a no-op, not a panic.
	Gemm(1, nil, 0, 3, make([]float32, 6), 2, 0, nil)
	Gemm(1, make([]float32, 3), 1, 3, make([]float32, 0), 0, 0, make([]float32, 0))
}

func TestGemmSingleRow(t *testing.T) {
	// m=1 is one quarter-filled micro-tile row over two k blocks; every
	// tile goes through the staging path.
	rng := NewRNG(41)
	k, n := 300, 300
	a := randomMat(rng, k)
	b := randomMat(rng, k*n)
	c := make([]float32, n)
	want := make([]float32, n)
	naiveGemm(1, a, 1, k, b, n, 0, want)
	Gemm(1, a, 1, k, b, n, 0, c)
	matsClose(t, c, want, 1e-3)
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	a := NewRNG(0)
	if a.Uint64() == 0 && a.Uint64() == 0 {
		t.Fatal("zero seed must still produce entropy")
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := NewRNG(42)
	x := make([]float32, 1000)
	rng.FillUniform(x, -2, 3)
	for _, v := range x {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform value %v outside [-2,3)", v)
		}
	}
	// Mean of U(-2,3) is 0.5.
	if mean := Sum(x) / float64(len(x)); math.Abs(mean-0.5) > 0.2 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(3)
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom with size mismatch must panic")
		}
	}()
	a.CopyFrom(b)
}

func TestTensorStringCompact(t *testing.T) {
	if got := New(2, 3).String(); got != "Tensor[2 3]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestClipRejectsNonPositiveBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Clip with c<=0 must panic")
		}
	}()
	Clip([]float32{1}, 0)
}
