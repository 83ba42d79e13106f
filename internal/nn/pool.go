package nn

import (
	"fmt"

	"dgs/internal/tensor"
)

// MaxPool2D performs k×k max pooling with stride k over NCHW inputs.
type MaxPool2D struct {
	K int

	argmax  []int // flat input index chosen per output element
	inShape []int
	y, dx   *tensor.Tensor
}

// NewMaxPool2D creates a pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Forward pools x (B,C,H,W); H and W must be divisible by K.
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%p.K != 0 || w%p.K != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v not divisible by %d", x.Shape, p.K))
	}
	oh, ow := h/p.K, w/p.K
	p.y = buffer(p.y, batch, c, oh, ow)
	y := p.y
	if train {
		if len(p.argmax) < y.Len() {
			p.argmax = make([]int, y.Len())
		}
		p.inShape = append(p.inShape[:0], x.Shape...)
	}
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			in := x.Data[(b*c+ch)*h*w:]
			outBase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := in[oy*p.K*w+ox*p.K]
					bestIdx := oy*p.K*w + ox*p.K
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							idx := (oy*p.K+ky)*w + ox*p.K + kx
							if in[idx] > best {
								best = in[idx]
								bestIdx = idx
							}
						}
					}
					oi := outBase + oy*ow + ox
					y.Data[oi] = best
					if train {
						p.argmax[oi] = (b*c+ch)*h*w + bestIdx
					}
				}
			}
		}
	}
	return y
}

// Backward routes gradients to the argmax positions.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.dx = buffer(p.dx, p.inShape...)
	dx := p.dx
	dx.Zero()
	for i, g := range grad.Data {
		dx.Data[p.argmax[i]] += g
	}
	return dx
}

// Params returns nil.
func (p *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool2D averages each channel's spatial map, producing (B, C).
type GlobalAvgPool2D struct {
	inShape []int
	y, dx   *tensor.Tensor
}

// NewGlobalAvgPool2D creates the layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward averages over H×W.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	p.y = buffer(p.y, batch, c)
	y := p.y
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			var s float64
			base := (b*c + ch) * hw
			for _, v := range x.Data[base : base+hw] {
				s += float64(v)
			}
			y.Data[b*c+ch] = float32(s / float64(hw))
		}
	}
	if train {
		p.inShape = append(p.inShape[:0], x.Shape...)
	}
	return y
}

// Backward spreads each channel gradient uniformly over H×W.
func (p *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	hw := h * w
	p.dx = buffer(p.dx, p.inShape...)
	dx := p.dx
	inv := 1 / float32(hw)
	for b := 0; b < batch; b++ {
		for ch := 0; ch < c; ch++ {
			g := grad.Data[b*c+ch] * inv
			base := (b*c + ch) * hw
			for i := base; i < base+hw; i++ {
				dx.Data[i] = g
			}
		}
	}
	return dx
}

// Params returns nil.
func (p *GlobalAvgPool2D) Params() []*Param { return nil }
