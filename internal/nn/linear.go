package nn

import (
	"fmt"

	"dgs/internal/tensor"
)

// Linear is a fully connected layer: y = x·Wᵀ + b, with x of shape
// (batch, in) and y of shape (batch, out). W is stored (out, in).
type Linear struct {
	In, Out int
	W, B    *Param

	lastX *tensor.Tensor // input of the last training Forward, valid through the Backward that follows
	y, dx *tensor.Tensor // owned output and input-gradient buffers
}

// NewLinear creates a Linear layer with Kaiming-initialised weights.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   NewParam(name+".w", out, in),
		B:   NewParam(name+".b", out),
	}
	rng.KaimingFill(l.W.Value.Data, in)
	return l
}

// Forward computes y = x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear %s expects (batch,%d), got %v", l.W.Name, l.In, x.Shape))
	}
	batch := x.Dim(0)
	l.y = buffer(l.y, batch, l.Out)
	y := l.y // fully overwritten: GemmTB runs with beta=0
	// y(batch,out) = x(batch,in) * Wᵀ(in,out)
	tensor.GemmTB(1, x.Data, batch, l.In, l.W.Value.Data, l.Out, 0, y.Data)
	for i := 0; i < batch; i++ {
		tensor.Axpy(1, l.B.Value.Data, y.Data[i*l.Out:(i+1)*l.Out])
	}
	l.lastX = nil // an eval pass overwrites the input an earlier training pass retained
	if train {
		l.lastX = x
	}
	return y
}

// Backward computes input gradient and accumulates dW, dB.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic("nn: Linear.Backward before Forward(train=true)")
	}
	batch := grad.Dim(0)
	// dW(out,in) += gradᵀ(out,batch) * x(batch,in)
	tensor.GemmTA(1, grad.Data, batch, l.Out, l.lastX.Data, l.In, 1, l.W.Grad.Data)
	// dB += column sums of grad
	for i := 0; i < batch; i++ {
		tensor.Axpy(1, grad.Data[i*l.Out:(i+1)*l.Out], l.B.Grad.Data)
	}
	// dX(batch,in) = grad(batch,out) * W(out,in)
	l.dx = buffer(l.dx, batch, l.In) // fully overwritten: Gemm runs with beta=0
	tensor.Gemm(1, grad.Data, batch, l.Out, l.W.Value.Data, l.In, 0, l.dx.Data)
	return l.dx
}

// Params returns W then B.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
