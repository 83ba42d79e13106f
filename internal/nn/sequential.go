package nn

import "dgs/internal/tensor"

// Sequential chains layers; Backward traverses them in reverse.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a chain from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward threads x through every layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward threads the gradient through the layers in reverse.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params concatenates all layer parameters in order.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Residual computes y = F(x) + S(x) where F is the main branch and S the
// shortcut (identity when nil). This is the basic ResNet block topology.
type Residual struct {
	Body     Layer
	Shortcut Layer // nil means identity

	relu    *ReLU
	sum, dx *tensor.Tensor // owned pre-activation sum and input-gradient buffers
}

// NewResidual builds a residual block with a trailing ReLU, matching the
// post-activation ResNet design.
func NewResidual(body, shortcut Layer) *Residual {
	return &Residual{Body: body, Shortcut: shortcut, relu: NewReLU()}
}

// Forward computes relu(Body(x) + Shortcut(x)). The identity shortcut reads
// x after Body has run; x belongs to the layer before this block, which
// does not run again until the block returns.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.Body.Forward(x, train)
	s := x
	if r.Shortcut != nil {
		s = r.Shortcut.Forward(x, train)
	}
	r.sum = buffer(r.sum, y.Shape...)
	tensor.Add(r.sum.Data, y.Data, s.Data)
	return r.relu.Forward(r.sum, train)
}

// Backward splits the gradient between branch and shortcut.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	grad = r.relu.Backward(grad)
	dBody := r.Body.Backward(grad)
	dShort := grad
	if r.Shortcut != nil {
		dShort = r.Shortcut.Backward(grad)
	}
	r.dx = buffer(r.dx, dBody.Shape...)
	tensor.Add(r.dx.Data, dBody.Data, dShort.Data)
	return r.dx
}

// Params returns body then shortcut parameters.
func (r *Residual) Params() []*Param {
	out := r.Body.Params()
	if r.Shortcut != nil {
		out = append(out, r.Shortcut.Params()...)
	}
	return out
}
