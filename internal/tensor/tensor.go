// Package tensor provides a small dense float32 tensor library with the
// operations needed to train neural networks: elementwise arithmetic,
// BLAS-like vector kernels, and a blocked, packed GEMM.
//
// Tensors are row-major and always contiguous. The package is the compute
// substrate for internal/nn; it deliberately implements only what training
// needs, with deterministic behaviour for reproducible experiments.
package tensor

import "fmt"

// Tensor is a dense, contiguous, row-major float32 array with a shape.
// The zero value is an empty tensor.
type Tensor struct {
	// Data holds the elements in row-major order. len(Data) == product(Shape).
	Data []float32
	// Shape holds the dimension sizes, outermost first.
	Shape []int
}

// New allocates a zero-filled tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: make([]float32, n), Shape: s}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
