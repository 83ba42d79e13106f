package nn

import (
	"math"

	"dgs/internal/tensor"
)

// ReLU applies max(0,x) elementwise: positive inputs pass, everything else
// (negatives, ±0, NaN) becomes +0 and passes no gradient.
type ReLU struct {
	y, dx *tensor.Tensor // owned output and input-gradient buffers
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(0,x). The sign of the input is data, so the select
// is a bit mask rather than a branch: v > 0 exactly when its bit pattern,
// read as an int32, lies in (0, +Inf's], i.e. neither it nor
// 0x7f800000-bits is negative. (+0 passes the test and is already +0.)
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = buffer(r.y, x.Shape...)
	y := r.y.Data
	for i, v := range x.Data {
		b := math.Float32bits(v)
		keep := ^((int32(b) | int32(0x7f800000-b)) >> 31)
		y[i] = math.Float32frombits(b & uint32(keep))
	}
	return r.y
}

// Backward zeroes gradients where the input was non-positive. The retained
// output holds +0 there and the positive input elsewhere, so y > 0 ⇔ x > 0
// ⇔ y's bits are non-zero.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.dx = buffer(r.dx, grad.Shape...)
	dx, y := r.dx.Data, r.y.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		pass := -int32(math.Float32bits(y[i])) >> 31
		dx[i] = math.Float32frombits(math.Float32bits(g) & uint32(pass))
	}
	return r.dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes (B, ...) to (B, rest). It is shape bookkeeping only: both
// directions return views of their argument's data.
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all but the batch dimension.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = append(f.inShape[:0], x.Shape...)
	}
	batch := x.Dim(0)
	return x.Reshape(batch, x.Len()/batch)
}

// Backward restores the cached input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }
