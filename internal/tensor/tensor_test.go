package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	d[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("FromSlice must not copy")
	}
	if x.At(0, 0) != 42 || x.At(1, 2) != 6 {
		t.Fatal("At returned wrong values")
	}
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("Set wrote wrong offset")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone must preserve shape")
	}
}

func TestZeroFill(t *testing.T) {
	x := New(4)
	x.Fill(3)
	for _, v := range x.Data {
		if v != 3 {
			t.Fatal("Fill failed")
		}
	}
	x.Zero()
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("equal shapes reported unequal")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("unequal shapes reported equal")
	}
	if New(2, 3).SameShape(New(2, 3, 1)) {
		t.Fatal("different ranks reported equal")
	}
}

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	want := []float32{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestDotSumScale(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	if got := Dot(x, y); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Sum(x); got != 6 {
		t.Fatalf("Sum = %v, want 6", got)
	}
	Scale(0.5, y)
	if y[0] != 2 || y[2] != 3 {
		t.Fatalf("Scale wrong: %v", y)
	}
}

func TestAdd(t *testing.T) {
	a := []float32{1, 2}
	b := []float32{3, 5}
	dst := make([]float32, 2)
	Add(dst, a, b)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("Add wrong: %v", dst)
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float32{1, 5, 3, 5}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1 (lowest tie index)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("ArgMax(nil) = %d, want -1", got)
	}
}

// Property: Axpy then Axpy with negated alpha restores y.
func TestAxpyInvertible(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := make([]float32, len(vals))
		y := make([]float32, len(vals))
		for i, v := range vals {
			// Keep values bounded so float error stays tiny.
			x[i] = float32(math.Mod(float64(v), 100))
			y[i] = float32(math.Mod(float64(v)*3, 100))
		}
		orig := make([]float32, len(y))
		copy(orig, y)
		Axpy(1.5, x, y)
		Axpy(-1.5, x, y)
		for i := range y {
			if math.Abs(float64(y[i]-orig[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The helpers below are the tensor API only these tests use.

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if len(data) does not match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: data, Shape: s}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of x and y (accumulated in float64 for
// stability).
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return s
}
