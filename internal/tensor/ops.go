package tensor

import "fmt"

// Axpy computes y += alpha*x over flat float32 slices.
// It panics if the lengths differ.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale computes x *= alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = a + b elementwise. dst may alias a or b.
func Add(dst, a, b []float32) {
	checkTriple("Add", dst, a, b)
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func checkTriple(op string, dst, a, b []float32) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic(fmt.Sprintf("tensor: %s length mismatch dst=%d a=%d b=%d", op, len(dst), len(a), len(b)))
	}
}

// Sum returns the sum of all elements (float64 accumulator).
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// ArgMax returns the index of the maximum element of x, or -1 if x is empty.
// Ties resolve to the lowest index.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}
