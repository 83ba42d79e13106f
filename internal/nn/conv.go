package nn

import (
	"fmt"

	"dgs/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs implemented as one
// batch-wide im2col + GEMM: the whole batch's patches form a single
// (InC*KH*KW) × (batch*OH*OW) matrix, so forward, dW and dX are one GEMM
// each with every image's columns side by side. Weights are stored
// (outC, inC*kh*kw).
type Conv2D struct {
	InC, OutC           int
	KH, KW, Stride, Pad int
	W, B                *Param

	// cols is the im2col matrix of the last Forward; the dW GEMM of the
	// Backward that follows reads it again.
	cols    []float32
	h, w    int  // input spatial dims of the last Forward
	trained bool // the last Forward ran with train=true, so Backward may follow

	// Scratch reused across iterations. ymat and gmat hold the output and
	// its gradient channel-major (OutC × batch*OH*OW), the layout the GEMMs
	// produce and consume; y and dx are what the layer hands out.
	ymat, gmat, dcols []float32
	y, dx             *tensor.Tensor
}

// NewConv2D creates a convolution layer with Kaiming init.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC,
		KH: k, KW: k, Stride: stride, Pad: pad,
		W: NewParam(name+".w", outC, inC*k*k),
		B: NewParam(name+".b", outC),
	}
	rng.KaimingFill(c.W.Value.Data, inC*k*k)
	return c
}

// Forward convolves x (B, InC, H, W) producing (B, OutC, OH, OW).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D %s expects (B,%d,H,W), got %v", c.W.Name, c.InC, x.Shape))
	}
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	krows := c.InC * c.KH * c.KW
	hw := oh * ow
	n := batch * hw
	c.h, c.w, c.trained = h, w, train

	c.cols = grow(c.cols, krows*n)
	c.ymat = grow(c.ymat, c.OutC*n)
	c.y = buffer(c.y, batch, c.OutC, oh, ow)
	tensor.Im2Col(x.Data, batch, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, oh, ow, c.cols)
	// ymat(OutC, n) = W(OutC, krows) * cols(krows, n)
	tensor.Gemm(1, c.W.Value.Data, c.OutC, krows, c.cols, n, 0, c.ymat)
	// y[b][oc] = ymat[oc][b] + bias[oc]
	for oc := 0; oc < c.OutC; oc++ {
		bias := c.B.Value.Data[oc]
		for b := 0; b < batch; b++ {
			out := c.y.Data[(b*c.OutC+oc)*hw:][:hw]
			for i, v := range c.ymat[oc*n+b*hw:][:hw] {
				out[i] = v + bias
			}
		}
	}
	return c.y
}

// Backward computes dX and accumulates dW, dB.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.trained {
		panic("nn: Conv2D.Backward before Forward(train=true)")
	}
	batch, oh, ow := grad.Dim(0), grad.Dim(2), grad.Dim(3)
	hw := oh * ow
	n := batch * hw
	krows := c.InC * c.KH * c.KW
	if len(c.cols) != krows*n {
		panic(fmt.Sprintf("nn: Conv2D %s gradient %v does not match the last Forward", c.W.Name, grad.Shape))
	}
	c.gmat = grow(c.gmat, c.OutC*n)
	c.dcols = grow(c.dcols, krows*n) // fully overwritten: GemmTA runs with beta=0
	c.dx = buffer(c.dx, batch, c.InC, c.h, c.w)

	// gmat[oc][b] = grad[b][oc]; dB += per-channel sums, image by image
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := grad.Data[(b*c.OutC+oc)*hw:][:hw]
			copy(c.gmat[oc*n+b*hw:], g)
			c.B.Grad.Data[oc] += float32(tensor.Sum(g))
		}
	}
	// dW(OutC,krows) += gmat(OutC,n) * colsᵀ(n,krows)
	tensor.GemmTB(1, c.gmat, c.OutC, n, c.cols, krows, 1, c.W.Grad.Data)
	// dcols(krows,n) = Wᵀ(krows,OutC) * gmat(OutC,n)
	tensor.GemmTA(1, c.W.Value.Data, c.OutC, krows, c.gmat, n, 0, c.dcols)
	tensor.Col2Im(c.dcols, batch, c.InC, c.h, c.w, c.KH, c.KW, c.Stride, c.Pad, oh, ow, c.dx.Data)
	return c.dx
}

// Params returns W then B.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
