// Package nn is a from-scratch neural-network layer library with manual
// backpropagation. It exists because the paper trains ResNet-18 with
// PyTorch, which has no Go equivalent: this package provides the
// differentiable-model substrate (layers, losses, residual CNNs) whose
// per-layer stochastic gradients feed the DGS sparsification pipeline.
//
// All layers follow the same contract: Forward caches whatever Backward
// needs, Backward consumes the upstream gradient and accumulates parameter
// gradients into Param.Grad, and Params exposes the trainable state in a
// stable order so distributed code can address "layer j" exactly as the
// paper's algorithms do.
//
// Buffer ownership: the tensors Forward and Backward return alias storage
// the layer owns (or the layer's input, for an empty Sequential),
// allocated on first use and reused from then on, so a steady-state
// training step allocates nothing per layer. A Forward result is valid
// until that layer's next Forward, a Backward result until its next
// Backward; a caller that needs either for longer copies it. Layers
// themselves rely on this window: what Forward retains of its input or
// output is read by the Backward that follows and by nothing later, so
// Backward pairs with the layer's most recent Forward, which must have run
// with train=true. Buffers follow the input shape (a final partial batch,
// a different evaluation batch) and only grow.
package nn

import "dgs/internal/tensor"

// Param is one trainable parameter tensor together with its gradient
// accumulator. DGS treats each Param as one "layer" for per-layer Top-R%
// threshold selection (paper Algorithm 1, line 7).
type Param struct {
	// Name identifies the parameter for logging, e.g. "block1.conv.w".
	Name string
	// Value is the parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates ∂L/∂Value across Backward calls until zeroed.
	Grad *tensor.Tensor
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module.
type Layer interface {
	// Forward computes the layer output for input x. When train is true the
	// layer caches activations for Backward and uses training-mode
	// behaviour (e.g. batch statistics in BatchNorm). The result aliases
	// layer-owned storage and is valid until this layer's next Forward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient wrt the layer output and returns the
	// gradient wrt the layer input, accumulating parameter gradients.
	// The layer's most recent Forward must have run with train=true. The
	// result aliases layer-owned storage and is valid until this layer's
	// next Backward.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters in a stable order
	// (possibly empty).
	Params() []*Param
}

// buffer returns a tensor of the given shape for a layer to fill and hand
// out: buf itself, re-sliced, when its storage is large enough, otherwise a
// fresh tensor. The contents are unspecified; callers overwrite all of it.
func buffer(buf *tensor.Tensor, shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if buf == nil || cap(buf.Data) < n {
		// New's panic message retains its argument; pass a copy so this
		// function's own variadic slice stays on the caller's stack.
		return tensor.New(append([]int(nil), shape...)...)
	}
	buf.Data = buf.Data[:n]
	buf.Shape = append(buf.Shape[:0], shape...)
	return buf
}

// grow is buffer for a bare slice: buf with length n, reallocated only when
// it is too small, contents unspecified.
func grow(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// Model is a network plus utilities for flat parameter access used by the
// distributed optimizers.
type Model struct {
	// Net is the underlying network.
	Net Layer
	// params caches Net.Params() so ordering is computed once.
	params []*Param
	// grads caches the per-layer views Gradients returns.
	grads [][]float32
}

// NewModel wraps a network.
func NewModel(net Layer) *Model {
	return &Model{Net: net, params: net.Params()}
}

// Params returns the trainable parameters in stable order.
func (m *Model) Params() []*Param { return m.params }

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params {
		n += p.Value.Len()
	}
	return n
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.params {
		p.ZeroGrad()
	}
}

// Forward runs the network.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.Net.Forward(x, train)
}

// Backward runs backprop from the loss gradient.
func (m *Model) Backward(grad *tensor.Tensor) { m.Net.Backward(grad) }

// LayerSizes returns the element count of each parameter, in order.
func (m *Model) LayerSizes() []int {
	sizes := make([]int, len(m.params))
	for i, p := range m.params {
		sizes[i] = p.Value.Len()
	}
	return sizes
}

// Gradients returns the per-layer gradient slices (aliasing Param.Grad).
// The outer slice is built once and shared by every call.
func (m *Model) Gradients() [][]float32 {
	if m.grads == nil {
		m.grads = make([][]float32, len(m.params))
		for i, p := range m.params {
			m.grads[i] = p.Grad.Data
		}
	}
	return m.grads
}
