package nn

import (
	"fmt"

	"dgs/internal/tensor"
)

// Dropout zeroes each activation with probability P during training and
// rescales the survivors by 1/(1−P) (inverted dropout), so inference needs
// no adjustment.
type Dropout struct {
	P   float32
	rng *tensor.RNG

	mask  []bool
	y, dx *tensor.Tensor
}

// NewDropout creates the layer. p must be in [0,1); seed drives the mask
// stream (each replica should use a distinct seed).
func NewDropout(p float32, seed uint64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, rng: tensor.NewRNG(seed)}
}

// Forward applies the mask in training mode and is the identity in eval.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		return x
	}
	if len(d.mask) < x.Len() {
		d.mask = make([]bool, x.Len())
	}
	d.y = buffer(d.y, x.Shape...)
	y := d.y
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		keep := d.rng.Float32() >= d.P
		d.mask[i] = keep
		y.Data[i] = 0
		if keep {
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward routes gradients through surviving units only.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.P == 0 {
		return grad
	}
	d.dx = buffer(d.dx, grad.Shape...)
	dx := d.dx
	scale := 1 / (1 - d.P)
	for i, g := range grad.Data {
		dx.Data[i] = 0
		if d.mask[i] {
			dx.Data[i] = g * scale
		}
	}
	return dx
}

// Params returns nil; dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// AvgPool2D performs k×k average pooling with stride k over NCHW inputs.
type AvgPool2D struct {
	K int

	inShape []int
	y, dx   *tensor.Tensor
}

// NewAvgPool2D creates the layer.
func NewAvgPool2D(k int) *AvgPool2D { return &AvgPool2D{K: k} }

// Forward pools x (B,C,H,W); H and W must be divisible by K.
func (p *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%p.K != 0 || w%p.K != 0 {
		panic(fmt.Sprintf("nn: AvgPool2D input %v not divisible by %d", x.Shape, p.K))
	}
	oh, ow := h/p.K, w/p.K
	p.y = buffer(p.y, batch, c, oh, ow)
	y := p.y
	inv := 1 / float32(p.K*p.K)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			in := x.Data[(b*c+ch)*h*w:]
			out := y.Data[(b*c+ch)*oh*ow:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float32
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							s += in[(oy*p.K+ky)*w+ox*p.K+kx]
						}
					}
					out[oy*ow+ox] = s * inv
				}
			}
		}
	}
	if train {
		p.inShape = append(p.inShape[:0], x.Shape...)
	}
	return y
}

// Backward spreads each output gradient uniformly across its window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, c := p.inShape[0], p.inShape[1]
	h, w := p.inShape[2], p.inShape[3]
	oh, ow := h/p.K, w/p.K
	p.dx = buffer(p.dx, p.inShape...)
	dx := p.dx
	inv := 1 / float32(p.K*p.K)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[(b*c+ch)*oh*ow:]
			out := dx.Data[(b*c+ch)*h*w:]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := g[oy*ow+ox] * inv
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							out[(oy*p.K+ky)*w+ox*p.K+kx] = gv
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns nil.
func (p *AvgPool2D) Params() []*Param { return nil }
