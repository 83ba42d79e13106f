package nn

import (
	"fmt"
	"math"

	"dgs/internal/tensor"
)

// BatchNorm2D normalises each channel of an NCHW tensor over the batch and
// spatial dimensions, then applies a learned scale (gamma) and shift (beta).
// Running statistics are kept locally per worker (they are not part of the
// gradient exchange, matching standard distributed-training practice).
type BatchNorm2D struct {
	C        int
	Eps      float32
	Momentum float32 // running-stat EMA coefficient

	Gamma, Beta *Param

	RunningMean, RunningVar []float32

	// Backward caches.
	lastXHat []float32
	lastStd  []float32 // per-channel 1/sqrt(var+eps)
	lastDims [3]int    // batch, h, w
	y, dx    *tensor.Tensor
}

// NewBatchNorm2D creates a BatchNorm over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       NewParam(name+".gamma", c),
		Beta:        NewParam(name+".beta", c),
		RunningMean: make([]float32, c),
		RunningVar:  make([]float32, c),
	}
	bn.Gamma.Value.Fill(1)
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

// Forward normalises x. In training mode batch statistics are used and
// running statistics are updated; in eval mode running statistics are used.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2D %s expects (B,%d,H,W), got %v", bn.Gamma.Name, bn.C, x.Shape))
	}
	batch, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	n := batch * hw
	bn.y = buffer(bn.y, x.Shape...)
	y := bn.y

	if train {
		bn.lastXHat = grow(bn.lastXHat, x.Len())
		bn.lastStd = grow(bn.lastStd, bn.C)
		bn.lastDims = [3]int{batch, h, w}
		for ch := 0; ch < bn.C; ch++ {
			var sum, vsum float64
			for b := 0; b < batch; b++ {
				for _, v := range x.Data[(b*bn.C+ch)*hw:][:hw] {
					sum += float64(v)
				}
			}
			mean := float32(sum / float64(n))
			for b := 0; b < batch; b++ {
				for _, v := range x.Data[(b*bn.C+ch)*hw:][:hw] {
					d := float64(v - mean)
					vsum += d * d
				}
			}
			variance := float32(vsum / float64(n))
			invStd := float32(1.0 / math.Sqrt(float64(variance)+float64(bn.Eps)))
			bn.lastStd[ch] = invStd
			g, be := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
			for b := 0; b < batch; b++ {
				base := (b*bn.C + ch) * hw
				xhat, out := bn.lastXHat[base:base+hw], y.Data[base:base+hw]
				for i, v := range x.Data[base : base+hw] {
					xh := (v - mean) * invStd
					xhat[i] = xh
					out[i] = g*xh + be
				}
			}
			bn.RunningMean[ch] = (1-bn.Momentum)*bn.RunningMean[ch] + bn.Momentum*mean
			bn.RunningVar[ch] = (1-bn.Momentum)*bn.RunningVar[ch] + bn.Momentum*variance
		}
		return y
	}

	for ch := 0; ch < bn.C; ch++ {
		mean := bn.RunningMean[ch]
		invStd := float32(1.0 / math.Sqrt(float64(bn.RunningVar[ch])+float64(bn.Eps)))
		g, be := bn.Gamma.Value.Data[ch], bn.Beta.Value.Data[ch]
		for b := 0; b < batch; b++ {
			base := (b*bn.C + ch) * hw
			out := y.Data[base : base+hw]
			for i, v := range x.Data[base : base+hw] {
				out[i] = g*(v-mean)*invStd + be
			}
		}
	}
	return y
}

// Backward implements the standard batch-norm gradient.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	batch, h, w := bn.lastDims[0], bn.lastDims[1], bn.lastDims[2]
	hw := h * w
	n := float32(batch * hw)
	bn.dx = buffer(bn.dx, grad.Shape...)
	dx := bn.dx
	for ch := 0; ch < bn.C; ch++ {
		var dgSum, dbSum float64
		for b := 0; b < batch; b++ {
			base := (b*bn.C + ch) * hw
			xhat := bn.lastXHat[base : base+hw]
			for i, gv := range grad.Data[base : base+hw] {
				dgSum += float64(gv) * float64(xhat[i])
				dbSum += float64(gv)
			}
		}
		bn.Gamma.Grad.Data[ch] += float32(dgSum)
		bn.Beta.Grad.Data[ch] += float32(dbSum)

		scale := bn.Gamma.Value.Data[ch] * bn.lastStd[ch]
		meanDy := float32(dbSum) / n
		meanDyXHat := float32(dgSum) / n
		for b := 0; b < batch; b++ {
			base := (b*bn.C + ch) * hw
			xhat, out := bn.lastXHat[base:base+hw], dx.Data[base:base+hw]
			for i, gv := range grad.Data[base : base+hw] {
				out[i] = scale * (gv - meanDy - xhat[i]*meanDyXHat)
			}
		}
	}
	return dx
}

// Params returns gamma then beta.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }
